//! Branch & bound over LP relaxations.
//!
//! Best-bound node selection, most-fractional branching with objective
//! tie-breaks, a diving primal heuristic, and deterministic budgets (node
//! counts) with optional wall-clock limits — mirroring how the
//! paper drives CPLEX with a per-query timeout and takes the incumbent.
//!
//! # Preemption
//!
//! [`solve_preemptible`] runs the search in *slices* of a caller-set node
//! quantum: when the quantum expires the search suspends at the next node
//! boundary into an owning [`SearchState`] (frontier heap, incumbent,
//! node-id counter, factor token) that can be parked indefinitely and
//! resumed with [`SearchState::resume`]. Three properties make a cut
//! invisible: it happens strictly between node evaluations; a node's LP
//! relaxation is a pure function of the node (its materialised bounds,
//! its parent's basis hint, and its parent's final factorisation, carried
//! as the node's `seed`), never of what the workspace solved last; and the
//! pop order is a total order over the heap's contents. So an
//! uninterrupted run and any sequence of suspend/resume cuts produce
//! bit-identical trees, pivot counts and objective bits. The search itself
//! is one sequential loop — see ARCHITECTURE.md §"Why the search is
//! sequential". A suspend never invalidates the caller's [`LpCacheSlot`]:
//! the slot keeps serving other submissions while the suspended search is
//! parked.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use sqpr_lp::{
    solve_with_bounds_recovering_ws, BasisState, FactorState, LpSolution, LpStatus, LpWorkspace,
    PivotCounts, Problem, SimplexOptions, VarBasisStatus,
};

use crate::cache::{LpCacheSlot, Side, SolverParts};
use crate::heuristics;
use crate::model::{LoweredLp, LpMap, Model, SearchGeom};
use crate::presolve::presolve_bounds_active;

/// Matrix-generation tokens for basis-factorisation reuse, one per branch &
/// bound tree. A single process-wide counter keeps tokens unique across
/// trees and slots, so a workspace can never confuse two matrices.
static FACTOR_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Claims a fresh, process-unique matrix-generation token.
fn next_factor_token() -> u64 {
    FACTOR_GENERATION.fetch_add(1, AtomicOrdering::Relaxed)
}

/// Incumbent filter callback (lazy-constraint hook): integral candidates
/// it rejects never become the incumbent.
pub type IncumbentFilter<'a> = &'a dyn Fn(&[f64]) -> bool;

/// Bound-vs-incumbent pruning tolerance under the Harris ratio tests.
/// Sized to dominate the LP's primal noise floor: the Harris test
/// deliberately admits per-variable bound violations (a small fraction of
/// the feasibility tolerance, see `sqpr_lp`), which — multiplied by large
/// objective coefficients — can land a relaxation objective slightly
/// *below* the exact vertex optimum. With an epsilon tighter than that
/// noise, nodes that tie the incumbent exactly (the overwhelmingly common
/// case on the planner's degenerate assignment models) would survive
/// pruning and inflate the tree.
const PRUNE_EPS_HARRIS: f64 = 1e-6;

/// Pruning tolerance under [`sqpr_lp::RatioTest::Classic`], whose ratio
/// test never overruns a bound — the ablation baseline stays exact.
const PRUNE_EPS_EXACT: f64 = 1e-9;

/// One seat of a [`ModelBasis`]: either a model variable or the slack of a
/// model constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisEntity {
    Var(usize),
    Cons(usize),
}

/// A simplex basis expressed in *model* coordinates (variable and
/// constraint indices) rather than LP columns.
///
/// The planner's persistent skeleton fixes a different subset of variables
/// every submission, so the compressed LP's column layout shifts between
/// solves even though the model only ever appends variables and rows. A
/// `ModelBasis` survives that re-mapping: captured from one solve's root
/// LP, it is re-projected onto the next solve's compressed LP (missing
/// seats are repaired by slack substitution, exactly like any other stale
/// basis hint — see [`sqpr_lp::BasisState`]).
#[derive(Debug, Clone)]
pub struct ModelBasis {
    /// Status of every model variable that had an LP column at capture
    /// time, ascending by variable. The others were folded out of that LP;
    /// they read as nonbasic at lower, the status a fresh lowering assumes.
    var_status: Vec<(usize, VarBasisStatus)>,
    /// Slack status of every model constraint that had an LP row at capture
    /// time, ascending by constraint. The others were constant rows; they
    /// keep their slack basic — exactly the seat they occupy when
    /// re-entering a later LP.
    cons_status: Vec<(usize, VarBasisStatus)>,
    /// The basic seats.
    basic: Vec<BasisEntity>,
}

/// The statuses an ascending `(entity, status)` list holds for the ascending
/// `entities`, `default` for those it does not list — one merge of the two.
fn statuses_of<'a>(
    listed: &'a [(usize, VarBasisStatus)],
    entities: &'a [usize],
    default: VarBasisStatus,
) -> impl Iterator<Item = VarBasisStatus> + 'a {
    let mut listed = listed.iter().peekable();
    entities.iter().map(move |&e| {
        while listed.next_if(|&&(l, _)| l < e).is_some() {}
        listed
            .next_if(|&&(l, _)| l == e)
            .map_or(default, |&(_, st)| st)
    })
}

impl ModelBasis {
    /// Lifts an LP-space basis into model coordinates via the map used to
    /// lower the model. Costs the LP, not the model.
    fn from_lp(basis: &BasisState, map: &LpMap) -> Self {
        let n = map.var_of_col.len();
        let statuses = |entities: &[usize], offset: usize| {
            entities
                .iter()
                .enumerate()
                .map(|(k, &e)| (e, basis.status[offset + k]))
                .collect()
        };
        ModelBasis {
            // Both ascending: see `LpMap`.
            var_status: statuses(&map.var_of_col, 0),
            cons_status: statuses(&map.cons_of_row, n),
            basic: basis
                .basic
                .iter()
                .map(|&g| {
                    if g < n {
                        BasisEntity::Var(map.var_of_col[g])
                    } else {
                        BasisEntity::Cons(map.cons_of_row[g - n])
                    }
                })
                .collect(),
        }
    }

    /// Re-expresses this basis against a *renumbered* model: `var_map` /
    /// `cons_map` give the new index of each old model variable /
    /// constraint (`None` for entities the new model dropped). Used by the
    /// planner's skeleton compaction, where the model is rebuilt from the
    /// surviving queries and every index shifts. Dropped seats disappear
    /// from the basic set and are repaired downstream by the usual slack
    /// substitution; unmapped statuses default to nonbasic-at-lower /
    /// slack-basic, the same defaults a fresh lowering assumes.
    pub fn remap(&self, var_map: &[Option<usize>], cons_map: &[Option<usize>]) -> ModelBasis {
        let renumber = |listed: &[(usize, VarBasisStatus)], map: &[Option<usize>]| {
            let mut moved: Vec<(usize, VarBasisStatus)> = listed
                .iter()
                .filter_map(|&(old, st)| map.get(old).copied().flatten().map(|new| (new, st)))
                .collect();
            moved.sort_unstable_by_key(|&(new, _)| new);
            moved
        };
        ModelBasis {
            var_status: renumber(&self.var_status, var_map),
            cons_status: renumber(&self.cons_status, cons_map),
            basic: self
                .basic
                .iter()
                .filter_map(|&e| match e {
                    BasisEntity::Var(v) => var_map.get(v).copied().flatten().map(BasisEntity::Var),
                    BasisEntity::Cons(c) => {
                        cons_map.get(c).copied().flatten().map(BasisEntity::Cons)
                    }
                })
                .collect(),
        }
    }

    /// Projects this basis onto a (possibly different) compressed LP. The
    /// result has the LP's exact dimensions; seats whose entity is fixed
    /// out of the LP are dropped and repaired downstream.
    fn to_lp(&self, map: &LpMap, num_rows: usize) -> BasisState {
        let n = map.var_of_col.len();
        let mut status = Vec::with_capacity(n + num_rows);
        // All four lists ascend: see `LpMap`.
        status.extend(statuses_of(
            &self.var_status,
            &map.var_of_col,
            VarBasisStatus::AtLower,
        ));
        status.extend(statuses_of(
            &self.cons_status,
            &map.cons_of_row,
            VarBasisStatus::Basic,
        ));
        let basic = self
            .basic
            .iter()
            .filter_map(|&e| match e {
                BasisEntity::Var(v) => map.col_of_var.get(v).copied().flatten(),
                BasisEntity::Cons(c) => map.cons_of_row.binary_search(&c).ok().map(|row| n + row),
            })
            .collect();
        BasisState {
            ncols: n,
            nrows: num_rows,
            basic,
            status,
        }
    }
}

/// Options for one branch & bound run.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of branch & bound nodes (deterministic budget).
    /// 0 means a large default (1 million).
    pub max_nodes: usize,
    /// Optional wall-clock limit; checked between nodes.
    pub time_limit: Option<Duration>,
    /// Relative optimality gap at which the search stops early.
    pub gap_tol: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Run the diving heuristic at the root and every this many nodes
    /// after it; 0 disables every dive, the root's included.
    pub dive_every: usize,
    /// Run presolve bound propagation before the search (default on).
    pub presolve: bool,
    /// Reuse LP bases inside the tree: children warm-start from their
    /// parent's optimal basis and dives chain bases between fixings.
    /// Disabling reverts every node LP to a cold slack-identity start (the
    /// pre-warm-start behaviour, kept as the baseline/ablation).
    pub reuse_bases: bool,
    /// Prune any node whose bound does not beat the incumbent by **more
    /// than this margin** (minimisation space; default 0 = plain
    /// bound-vs-incumbent pruning). Callers that only care about
    /// improvements of at least a known size — SQPR's planner discards
    /// every non-admitting improvement, and one admission is worth at
    /// least `λ1 - ε` — can set the margin just below that size and turn
    /// "is there any improvement?" proofs into "is there a *big*
    /// improvement?" proofs, which prune far earlier. Solutions better
    /// than the incumbent by more than the margin are found exactly as
    /// without it; improvements within the margin may be skipped, and the
    /// reported `best_bound` is then only valid to within the margin.
    pub cutoff_margin: f64,
    /// Accepted and ignored — every tree claims a matrix generation of its
    /// own, so factorisations pass between the nodes of one tree only.
    /// Removed together with the benchmark lines that name it in the next
    /// `benchmark` PR.
    pub cross_solve_factors: bool,
    /// Accepted and ignored — removed together with the two benchmark
    /// lines that name it in the next `benchmark` PR.
    pub threads: usize,
    /// LP subproblem options.
    pub lp: SimplexOptions,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 0,
            time_limit: None,
            gap_tol: 1e-6,
            int_tol: 1e-6,
            dive_every: 64,
            presolve: true,
            reuse_bases: true,
            cutoff_margin: 0.0,
            cross_solve_factors: true,
            threads: 1,
            lp: SimplexOptions::default(),
        }
    }
}

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Incumbent proven optimal (tree exhausted or gap below tolerance).
    Optimal,
    /// Budget exhausted with a feasible incumbent in hand.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// LP relaxation unbounded.
    Unbounded,
    /// Budget exhausted before any feasible point was found.
    Unknown,
}

/// Result of a MILP solve. `objective`/`best_bound` are reported in the
/// model's own sense (for maximisation, `best_bound >= objective`).
#[derive(Debug, Clone)]
pub struct MilpResult {
    pub status: MilpStatus,
    pub objective: f64,
    pub best_bound: f64,
    pub x: Option<Vec<f64>>,
    pub nodes: usize,
    pub lp_iterations: usize,
    /// LP iterations broken down by simplex phase (phase-I feasibility,
    /// primal phase-II, dual) across every relaxation solved in the tree.
    pub lp_pivots: PivotCounts,
    /// Relative gap `|objective - best_bound| / max(1, |objective|)`.
    pub gap: f64,
    /// Basis of the root LP relaxation in model coordinates, reusable as
    /// the `root_basis` of a [`MilpWarmStart`] for the next solve over a
    /// related (grown and/or differently-fixed) model.
    pub root_basis: Option<ModelBasis>,
}

impl MilpResult {
    pub fn has_solution(&self) -> bool {
        self.x.is_some()
    }
}

/// One chained bound tightening of an LP column (child nodes point at their
/// parents).
struct BoundChange {
    col: usize,
    lb: f64,
    ub: f64,
    parent: Option<Rc<BoundChange>>,
}

struct Node {
    /// Creation-order identity: node 0 is the root, children take ids in
    /// push order. The final heap tie-break — making the pop order a
    /// *total* order, independent of `BinaryHeap` insertion history.
    id: u64,
    /// Valid lower bound (minimisation space) inherited from the parent LP.
    est: f64,
    depth: usize,
    chain: Option<Rc<BoundChange>>,
    /// Optimal basis of the parent's LP relaxation: the child differs only
    /// in one variable's bounds, so re-solving from here takes a handful of
    /// pivots instead of a cold phase-I. Shared (`Rc`) between the two
    /// siblings.
    basis: Option<Rc<BasisState>>,
    /// The parent relaxation's final detached factorisation, installed
    /// into the workspace before this node's solve. Seeding every node
    /// from its *parent's* factors — rather than whatever the workspace
    /// happened to solve last — is what makes node evaluation a pure
    /// function of the node, and therefore indifferent to where a
    /// suspend/resume cut falls.
    seed: Option<Rc<FactorState>>,
}

/// Max-heap wrapper turning `BinaryHeap` into best-first (smallest bound).
struct OrdNode(Node);

impl PartialEq for OrdNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OrdNode {}
impl PartialOrd for OrdNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller est = higher priority; a NaN bound is the worst
        // bound there is, below every number (and equal to another NaN).
        // Tie-break on depth (prefer deeper nodes: closer to integral),
        // then on smaller id (creation order) so the order is total:
        // `BinaryHeap` is not stable, and a resumed search needs pops to be
        // a pure function of the heap's *contents*.
        let (mine, theirs) = (self.0.est, other.0.est);
        let by_bound = match (mine.is_nan(), theirs.is_nan()) {
            (false, false) => theirs.partial_cmp(&mine).unwrap_or(Ordering::Equal),
            (nan_mine, nan_theirs) => nan_theirs.cmp(&nan_mine),
        };
        by_bound
            .then(self.0.depth.cmp(&other.0.depth))
            .then(other.0.id.cmp(&self.0.id))
    }
}

/// Cross-solve warm-start context: a known-feasible starting point (the
/// incumbent seed) and/or the root-LP basis of a previous solve over a
/// related model. Either part may be absent; both are validated/repaired
/// rather than trusted.
#[derive(Debug, Clone, Copy, Default)]
pub struct MilpWarmStart<'a> {
    /// Seed incumbent: bypasses branching if feasible (checked).
    pub start: Option<&'a [f64]>,
    /// Basis hint for the root LP relaxation, typically
    /// [`MilpResult::root_basis`] from the previous submission's solve
    /// (re-projected automatically if the model has since grown or changed
    /// its fixed set).
    pub root_basis: Option<&'a ModelBasis>,
}

/// Solves the model by branch & bound, to completion: no warm start, no
/// incumbent filter, and a private LP cache slot.
pub fn solve(model: &Model, opts: &MilpOptions) -> MilpResult {
    let warm = MilpWarmStart::default();
    match solve_preemptible(model, opts, warm, None, None, usize::MAX) {
        SolveOutcome::Done(r) => r,
        // An unbounded quantum never suspends; the anytime snapshot keeps
        // this arm panic-free all the same.
        SolveOutcome::Suspended(s) => s.incumbent_result(),
    }
}

/// Outcome of a preemptible solve slice: the search either ran to its
/// natural end (optimality/infeasibility proof or budget) or was suspended
/// at a node boundary into a resumable [`SearchState`].
// The `Done` variant carries `MilpResult` by value like every other solve
// entry point; suspension (already boxed) is the rare arm, so the size
// skew buys the common path a heap allocation saved.
#[allow(clippy::large_enum_variant, reason = "the common arm stays unboxed")]
pub enum SolveOutcome {
    Done(MilpResult),
    Suspended(Box<SearchState>),
}

impl SolveOutcome {
    /// The finished result, if the slice completed the search.
    pub fn done(self) -> Option<MilpResult> {
        match self {
            SolveOutcome::Done(r) => Some(r),
            SolveOutcome::Suspended(_) => None,
        }
    }
}

/// The general entry point, and the preemptible one: takes the incumbent
/// filter (the lazy-constraint hook — integral candidates it rejects never
/// become the incumbent; a start point bypasses it, the caller vouches) and
/// the optional LP cache, runs at most `quantum` nodes, then suspends the
/// search at the next node boundary into a
/// [`SearchState`] (resume with [`SearchState::resume`]). `quantum = 0`
/// suspends before the first node (the root is pushed but unevaluated);
/// `usize::MAX` never suspends. An uninterrupted run and *any* sequence of
/// suspend/resume cuts produce bit-identical trees, pivot counts and
/// objective bits — see the module docs.
///
/// Every search runs over an [`LpCacheSlot`]: the caller's, or without one
/// a private, fresh slot whose counters nobody reads. Its refresh is the
/// lowering, its tables set up presolve and validate the seed and every
/// candidate incumbent; a fresh slot is simply the first solve of one.
///
/// A suspend leaves the caller's [`LpCacheSlot`] fully valid: the slot's
/// cached lowering and workspace survive, and later submissions may be
/// served from it while the suspended state is parked. Every tree claims a
/// matrix generation of its own and seeds its root with no factorisation,
/// so what a tree leaves in the workspace never reaches the next one.
///
/// The lowering and workspace are borrowed from the slot by the search; on
/// suspension the lowering and its tables go into the returned
/// [`SearchState`] — moved out of a private slot, cloned from the caller's
/// (suspends are rare — one per deadline-preempted round — so the clone is
/// off the hot path).
pub fn solve_preemptible(
    model: &Model,
    opts: &MilpOptions,
    warm: MilpWarmStart<'_>,
    filter: Option<IncumbentFilter<'_>>,
    cache: Option<&mut LpCacheSlot>,
    quantum: usize,
) -> SolveOutcome {
    let private = cache.is_none();
    let mut fresh = None;
    let slot = match cache {
        Some(slot) => slot,
        None => fresh.insert(LpCacheSlot::new()),
    };
    let SolverParts { lowered, side, ws } = slot.refresh_solver(model);
    let (lp, geom) = (&lowered.lp, &lowered.geom);
    let start_tol = opts.int_tol.max(1e-7);
    let start = warm.start.and_then(|x| {
        let objective = side.start_objective(model, &geom.map, x, start_tol)?;
        Some((x, objective))
    });
    let factor_token = next_factor_token();
    ws.begin_factor_generation(factor_token);
    let mut core = SearchCore::new(model, opts, start, warm.root_basis, lp, geom, side);
    let verdict = Bnb {
        model,
        opts,
        filter,
        lp,
        geom,
        core: &mut core,
        side,
        ws,
        factor_token,
        #[expect(
            clippy::disallowed_methods,
            reason = "opts.time_limit is an explicit caller SLO; expiry surfaces as a TimeLimit verdict, never a silently different plan"
        )]
        deadline: opts.time_limit.map(|d| Instant::now() + d),
    }
    .drive(quantum);
    match verdict {
        SliceVerdict::Finished(status, bound) => {
            SolveOutcome::Done(core.result(model, status, bound))
        }
        SliceVerdict::Suspended => {
            let (lowered, side) = slot.search_input(model, private);
            // The suspended search gets a private workspace: every
            // factorisation it still needs lives in its node seeds (`Rc`s
            // inside the heap), and node evaluation installs from the seed,
            // under the tree's token, before each solve, so a fresh
            // workspace is semantically identical to the one the slice ran
            // in.
            SolveOutcome::Suspended(Box::new(SearchState {
                model: model.clone(),
                opts: opts.clone(),
                lowered,
                side,
                core,
                factor_token,
                ws: LpWorkspace::new(),
            }))
        }
    }
}

/// A branch & bound search suspended at a node boundary: the frontier
/// heap, incumbent, node-id counter, root bounds and factor-generation
/// token, plus owned clones of the model and options and the compressed LP
/// being searched with the cache tables that validate its candidates — so
/// the state outlives the planning round (and the cache slot borrow) that
/// spawned it. Resuming, in any number of further slices, reproduces the
/// uninterrupted run bit for bit: node evaluation is a pure function of the
/// node, the pop order is a total order over the heap's contents, and both
/// live entirely in this state.
///
/// Not `Send`: bound-change chains, basis hints and factor seeds are
/// `Rc`-shared between nodes.
pub struct SearchState {
    model: Model,
    opts: MilpOptions,
    /// The lowering the first slice ran over, and its slot's tables.
    lowered: LoweredLp,
    side: Side,
    core: SearchCore,
    factor_token: u64,
    ws: LpWorkspace,
}

impl std::fmt::Debug for SearchState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchState")
            .field("nodes_done", &self.core.nodes_done)
            .field("open_nodes", &self.core.heap.len())
            .field("has_incumbent", &self.core.incumbent.is_some())
            .finish_non_exhaustive()
    }
}

impl SearchState {
    /// Continues the search for at most `quantum` further nodes. The
    /// filter is re-supplied per slice (it is a borrowed closure and
    /// cannot be parked); callers must pass a filter with the same
    /// accept/reject behaviour on every slice, or the resumed search may
    /// legitimately diverge from the uninterrupted one.
    pub fn resume(
        mut self: Box<Self>,
        filter: Option<IncumbentFilter<'_>>,
        quantum: usize,
    ) -> SolveOutcome {
        #[expect(
            clippy::disallowed_methods,
            reason = "opts.time_limit is an explicit caller SLO; expiry surfaces as a TimeLimit verdict, never a silently different plan"
        )]
        let deadline = self.opts.time_limit.map(|d| Instant::now() + d);
        let state = &mut *self;
        let verdict = Bnb {
            model: &state.model,
            opts: &state.opts,
            filter,
            lp: &state.lowered.lp,
            geom: &state.lowered.geom,
            core: &mut state.core,
            side: &mut state.side,
            ws: &mut state.ws,
            factor_token: state.factor_token,
            deadline,
        }
        .drive(quantum);
        match verdict {
            SliceVerdict::Finished(status, bound) => {
                let core = std::mem::take(&mut self.core);
                SolveOutcome::Done(core.result(&self.model, status, bound))
            }
            SliceVerdict::Suspended => SolveOutcome::Suspended(self),
        }
    }

    /// Nodes processed so far, across every slice.
    pub fn nodes_done(&self) -> usize {
        self.core.nodes_done
    }

    /// Anytime snapshot of the suspended search as a [`MilpResult`]:
    /// status `Feasible` with the incumbent if one exists, `Unknown`
    /// otherwise; `best_bound` is the best open node's bound. The state
    /// itself is untouched — the search can still be resumed.
    pub fn incumbent_result(&self) -> MilpResult {
        let bound_min = self.core.heap.peek().map_or(f64::NEG_INFINITY, |n| n.0.est);
        let status = if self.core.incumbent.is_some() {
            MilpStatus::Feasible
        } else {
            MilpStatus::Unknown
        };
        self.core.result_ref(&self.model, status, bound_min)
    }
}

/// One slice's verdict, internal to the driver: [`SliceVerdict::Finished`]
/// carries the final status and best bound in minimisation space.
enum SliceVerdict {
    Finished(MilpStatus, f64),
    Suspended,
}

/// The mutable search state proper — everything a suspend must carry for
/// the resumed search to replay bit-identically. Owned by [`SearchState`]
/// between slices, mutated through the [`Bnb`] driver during one.
#[derive(Default)]
struct SearchCore {
    /// Incumbent in minimisation space (model-space vector).
    incumbent: Option<(f64, Vec<f64>)>,
    nodes_done: usize,
    lp_iterations: usize,
    lp_pivots: PivotCounts,
    heap: BinaryHeap<OrdNode>,
    /// Presolved bounds of the LP's columns.
    root_lb: Vec<f64>,
    root_ub: Vec<f64>,
    presolve_infeasible: bool,
    /// External basis hint for the root relaxation (already projected).
    root_hint: Option<Rc<BasisState>>,
    /// Next node id to assign (the root took 0).
    next_id: u64,
    /// Basis of the solved root relaxation (exported in the result).
    root_basis_out: Option<ModelBasis>,
    /// Node-materialisation scratch: the node's column bounds.
    lp_lb_buf: Vec<f64>,
    lp_ub_buf: Vec<f64>,
    /// Candidate-incumbent scratch (model space).
    x_buf: Vec<f64>,
    /// Root pushed (the first slice ran its prologue).
    started: bool,
    /// Loop-carried search verdicts (must survive a suspend: a node that
    /// survived pruning in an earlier slice keeps the tree non-infeasible).
    proven_infeasible_tree: bool,
    best_open_bound: f64,
}

/// The per-slice driver: borrows the invariants (model, options, LP,
/// geometry, workspaces) and mutates the [`SearchCore`]. Short-lived — one
/// `Bnb` exists per slice and is dropped at the slice boundary.
struct Bnb<'a> {
    model: &'a Model,
    opts: &'a MilpOptions,
    filter: Option<IncumbentFilter<'a>>,
    /// Compressed LP relaxation (bound-fixed variables folded out).
    lp: &'a Problem,
    geom: &'a SearchGeom,
    core: &'a mut SearchCore,
    /// The LP cache's tables for this lowering: the fixed values candidates
    /// take outside the LP's columns, and their validation.
    side: &'a mut Side,
    /// Reusable LP scratch shared by every relaxation (node solves and
    /// diving heuristics alike): borrowed from the [`LpCacheSlot`] on the
    /// first slice — so allocations survive between the slot's consecutive
    /// trees — and from the suspended [`SearchState`] on resume.
    ws: &'a mut LpWorkspace,
    /// Matrix generation every factor state in this tree is scoped to.
    factor_token: u64,
    /// Wall-clock cutoff, re-armed per slice from `opts.time_limit` (the
    /// deterministic budgets are `max_nodes` and the quantum; the clock
    /// limit is best-effort per slice by design).
    deadline: Option<Instant>,
}

impl SearchCore {
    /// `start` is the seed incumbent, already validated against the model,
    /// with its objective value; `side` the LP cache's tables for this
    /// lowering.
    fn new(
        model: &Model,
        opts: &MilpOptions,
        start: Option<(&[f64], f64)>,
        root_basis: Option<&ModelBasis>,
        lp: &Problem,
        geom: &SearchGeom,
        side: &mut Side,
    ) -> Self {
        let map = &geom.map;
        let mut presolve_infeasible = map.infeasible_fixed_row;
        // The lowering already classified rows: `cons_of_row` is exactly
        // the set with at least one unfixed variable, and the constant
        // rows' feasibility verdict is `infeasible_fixed_row` above — no
        // second O(model) scan needed.
        let presolved = opts
            .presolve
            .then(|| presolve_bounds_active(model, 6, map, lp, side));
        let (root_lb, root_ub) = match presolved {
            Some(Some(bounds)) => bounds,
            // Proven infeasible, or presolve is off: the model's own bounds,
            // which are the LP's.
            verdict => {
                presolve_infeasible |= verdict.is_some();
                let (lb, ub) = lp.col_bounds();
                (lb.to_vec(), ub.to_vec())
            }
        };
        let incumbent = start.map(|(x, objective)| (model.min_flip() * objective, x.to_vec()));
        let root_hint = root_basis.map(|mb| Rc::new(mb.to_lp(map, lp.nrows())));
        let ncols = lp.ncols();
        SearchCore {
            incumbent,
            nodes_done: 0,
            lp_iterations: 0,
            lp_pivots: PivotCounts::default(),
            heap: BinaryHeap::new(),
            root_lb,
            root_ub,
            presolve_infeasible,
            root_hint,
            next_id: 0,
            root_basis_out: None,
            lp_lb_buf: vec![0.0; ncols],
            lp_ub_buf: vec![0.0; ncols],
            x_buf: Vec::new(),
            started: false,
            proven_infeasible_tree: true, // until a node survives
            best_open_bound: f64::NEG_INFINITY,
        }
    }

    /// Builds the final [`MilpResult`] from a finished search (consuming —
    /// the incumbent vector and exported root basis move out).
    fn result(mut self, model: &Model, status: MilpStatus, bound_min: f64) -> MilpResult {
        let flip = model.min_flip();
        let (objective, x) = match self.incumbent.take() {
            Some((obj, x)) => (flip * obj, Some(x)),
            None => (f64::NAN, None),
        };
        let gap = match &x {
            Some(_) if bound_min.is_finite() => {
                (flip * objective - bound_min).abs() / objective.abs().max(1.0)
            }
            _ => f64::INFINITY,
        };
        MilpResult {
            status,
            objective,
            best_bound: flip * bound_min,
            x,
            nodes: self.nodes_done,
            lp_iterations: self.lp_iterations,
            lp_pivots: self.lp_pivots,
            gap,
            root_basis: self.root_basis_out.take(),
        }
    }

    /// Non-consuming [`Self::result`] (anytime snapshots of a suspended
    /// search clone the incumbent and root basis).
    fn result_ref(&self, model: &Model, status: MilpStatus, bound_min: f64) -> MilpResult {
        let flip = model.min_flip();
        let (objective, x) = match &self.incumbent {
            Some((obj, x)) => (flip * obj, Some(x.clone())),
            None => (f64::NAN, None),
        };
        let gap = match &self.incumbent {
            Some((obj, _)) if bound_min.is_finite() => (obj - bound_min).abs() / obj.abs().max(1.0),
            _ => f64::INFINITY,
        };
        MilpResult {
            status,
            objective,
            best_bound: flip * bound_min,
            x,
            nodes: self.nodes_done,
            lp_iterations: self.lp_iterations,
            lp_pivots: self.lp_pivots,
            gap,
            root_basis: self.root_basis_out.clone(),
        }
    }
}

impl<'a> Bnb<'a> {
    /// Materialises a node's column bounds into the scratch buffers (root
    /// bounds intersected with the node's bound-change chain).
    fn materialize_node(&mut self, chain: &Option<Rc<BoundChange>>) {
        let core = &mut *self.core;
        core.lp_lb_buf.copy_from_slice(&core.root_lb);
        core.lp_ub_buf.copy_from_slice(&core.root_ub);
        let mut cur = chain.as_ref();
        while let Some(c) = cur {
            // Intersection keeps correctness regardless of chain order.
            if c.lb > core.lp_lb_buf[c.col] {
                core.lp_lb_buf[c.col] = c.lb;
            }
            if c.ub < core.lp_ub_buf[c.col] {
                core.lp_ub_buf[c.col] = c.ub;
            }
            cur = c.parent.as_ref();
        }
    }

    /// Picks the integer column to branch on: most fractional value, ties
    /// broken by larger |objective| then smaller index. (Model-fixed
    /// integers outside the LP cannot branch; the lowering already rejected
    /// fractional fixings.)
    fn pick_branching(&self, x_lp: &[f64]) -> Option<(usize, f64)> {
        let (lb, ub) = (&self.core.lp_lb_buf, &self.core.lp_ub_buf);
        let mut best: Option<(usize, f64, f64)> = None;
        for &col in &self.geom.lp_integers {
            if lb[col] >= ub[col] {
                continue; // fixed at this node
            }
            let v = x_lp[col];
            let frac = v - v.floor();
            let dist = frac.min(1.0 - frac);
            if dist <= self.opts.int_tol {
                continue;
            }
            let j = self.geom.map.var_of_col[col];
            let obj = self.model.objective_coeff(crate::model::VarId::from_raw(j));
            let score = dist * (1.0 + obj.abs());
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((col, v, score));
            }
        }
        best.map(|(col, v, _)| (col, v))
    }

    /// Integrality of an LP-space point (model-fixed integers are integral
    /// by the lowering's contract).
    fn is_integral(&self, x_lp: &[f64]) -> bool {
        self.geom
            .lp_integers
            .iter()
            .all(|&col| (x_lp[col] - x_lp[col].round()).abs() <= self.opts.int_tol)
    }

    /// Considers a compressed-LP point as the incumbent: expanded into
    /// model space (folded variables at their fixed values), integers
    /// snapped exactly, then validated against the model and the filter.
    fn offer_incumbent(&mut self, x_lp: &[f64]) {
        let mut x = std::mem::take(&mut self.core.x_buf);
        let feasible = self
            .side
            .candidate_is_feasible(self.model, self.geom, x_lp, &mut x, 1e-5);
        if feasible && self.filter.is_none_or(|accepts| accepts(&x)) {
            let obj = self.model.min_flip() * self.model.objective_value(&x);
            match &mut self.core.incumbent {
                Some((best, best_x)) => {
                    if obj < *best - 1e-12 {
                        *best = obj;
                        best_x.clone_from(&x);
                    }
                }
                None => self.core.incumbent = Some((obj, x.clone())),
            }
        }
        self.core.x_buf = x;
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "time-limit check on the B&B driver; expiry stops the search with a TimeLimit verdict, it never reorders it"
    )]
    fn out_of_budget(&self) -> bool {
        let max_nodes = if self.opts.max_nodes == 0 {
            1_000_000
        } else {
            self.opts.max_nodes
        };
        if self.core.nodes_done >= max_nodes {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }

    /// Runs one slice of at most `quantum` nodes (`usize::MAX` = to
    /// completion). The first slice runs the prologue (presolve verdict,
    /// root push).
    fn drive(mut self, quantum: usize) -> SliceVerdict {
        if !self.core.started {
            self.core.started = true;
            if self.core.presolve_infeasible && self.core.incumbent.is_none() {
                // A warm start contradicting presolve would indicate a bug
                // in propagation; the model validator already vetted it, so
                // treat presolve as authoritative only when no start
                // exists.
                return SliceVerdict::Finished(MilpStatus::Infeasible, f64::INFINITY);
            }

            // Root node, warm-started from the previous solve's basis if
            // given; its factorisation is the tree's first.
            let root_hint = self.core.root_hint.clone();
            self.core.heap.push(OrdNode(Node {
                id: 0,
                est: f64::NEG_INFINITY,
                depth: 0,
                chain: None,
                basis: root_hint,
                seed: None,
            }));
            self.core.next_id = 1;
        }

        self.search(quantum)
    }

    /// The search loop: pops, prunes, evaluates, branches and accepts
    /// incumbents one node at a time. Suspension happens strictly
    /// *between* nodes (before a pop), so a cut changes no intermediate
    /// value the loop would compute.
    fn search(&mut self, quantum: usize) -> SliceVerdict {
        let mut budget_hit = false;
        let mut slice_done = 0usize;
        // Effective bound-vs-incumbent slack: the noise-floor epsilon for
        // the active ratio test, widened by the caller's cutoff margin.
        let prune_slack = if self.opts.lp.ratio_test == sqpr_lp::RatioTest::Classic {
            PRUNE_EPS_EXACT
        } else {
            PRUNE_EPS_HARRIS
        } + self.opts.cutoff_margin;

        loop {
            // Preemption point: the quantum counts nodes *evaluated this
            // slice*; everything else (global budgets, pruning, the status
            // computation below) runs on resume exactly as it would have
            // uninterrupted.
            if slice_done >= quantum && !self.core.heap.is_empty() {
                return SliceVerdict::Suspended;
            }
            let Some(OrdNode(node)) = self.core.heap.pop() else {
                break;
            };
            // Global pruning: with best-first search, once the best open
            // node cannot beat the incumbent, the incumbent is optimal.
            if let Some((inc, _)) = &self.core.incumbent {
                if node.est >= inc - prune_slack {
                    self.core.proven_infeasible_tree = false;
                    self.core.best_open_bound = *inc;
                    // All other open nodes are at least as bad.
                    self.core.heap.clear();
                    break;
                }
                let gap = (inc - node.est).abs() / inc.abs().max(1.0);
                if gap <= self.opts.gap_tol {
                    self.core.proven_infeasible_tree = false;
                    self.core.best_open_bound = node.est;
                    self.core.heap.clear();
                    break;
                }
            }
            if self.out_of_budget() {
                budget_hit = true;
                self.core.best_open_bound = node.est;
                self.core.proven_infeasible_tree = false;
                break;
            }
            self.core.nodes_done += 1;
            slice_done += 1;

            self.materialize_node(&node.chain);
            let hint = node.basis.as_deref().filter(|_| self.opts.reuse_bases);
            let NodeEval { sol, factors } = evaluate_node_lp(
                self.lp,
                &self.core.lp_lb_buf,
                &self.core.lp_ub_buf,
                hint,
                &self.opts.lp,
                self.factor_token,
                node.seed,
                self.ws,
            );
            self.core.lp_iterations += sol.iterations;
            self.core.lp_pivots.merge(&sol.pivots);
            if node.depth == 0 && self.core.root_basis_out.is_none() {
                self.core.root_basis_out = sol
                    .basis
                    .as_ref()
                    .map(|b| ModelBasis::from_lp(b, &self.geom.map));
            }

            match sol.status {
                LpStatus::Infeasible => continue,
                LpStatus::Unbounded => {
                    if node.depth == 0 {
                        return SliceVerdict::Finished(MilpStatus::Unbounded, f64::NEG_INFINITY);
                    }
                    continue; // child unbounded implies root unbounded; defensive
                }
                LpStatus::Optimal | LpStatus::IterationLimit => {}
            }
            self.core.proven_infeasible_tree = false;

            // A non-optimal LP termination gives no trustworthy bound;
            // inherit the parent's. Add back the folded fixed-variable
            // objective to recover model-space bounds.
            let node_bound = if sol.status == LpStatus::Optimal {
                sol.objective + self.geom.map.fixed_obj_min
            } else {
                node.est
            };
            if let Some((inc, _)) = &self.core.incumbent {
                if node_bound >= inc - prune_slack {
                    continue;
                }
            }

            if sol.status == LpStatus::Optimal && self.is_integral(&sol.x) {
                self.offer_incumbent(&sol.x);
                continue;
            }

            // Primal heuristics from this relaxation point.
            if self.opts.dive_every > 0
                && (self.core.nodes_done == 1
                    || self.core.nodes_done.is_multiple_of(self.opts.dive_every))
            {
                // Chain the dive from this node's final factorisation.
                self.ws
                    .install_factor_state(self.factor_token, factors.as_deref().cloned());
                if let Some((_, x_lp)) = heuristics::dive(
                    self.lp,
                    &self.geom.lp_integers,
                    &self.core.lp_lb_buf,
                    &self.core.lp_ub_buf,
                    &sol.x,
                    sol.basis.as_ref().filter(|_| self.opts.reuse_bases),
                    &self.opts.lp,
                    self.opts.int_tol,
                    &mut self.core.lp_iterations,
                    &mut self.core.lp_pivots,
                    self.ws,
                ) {
                    self.offer_incumbent(&x_lp);
                }
            }

            // Branch.
            let Some((col, value)) = self.pick_branching(&sol.x) else {
                // Numerically integral but is_integral said no (tolerance
                // edge): offer as incumbent and move on.
                if sol.status == LpStatus::Optimal {
                    self.offer_incumbent(&sol.x);
                }
                continue;
            };
            // Both children start from this node's optimal basis (they
            // differ from it by one bound, so the re-solve is a short
            // feasibility walk instead of a cold start) and inherit its
            // final factorisation as their seed. Ids are assigned in push
            // order; pushes happen only here.
            let child_basis = sol.basis.map(Rc::new);
            let floor = value.floor();
            let (node_lb, node_ub) = (self.core.lp_lb_buf[col], self.core.lp_ub_buf[col]);
            let down = Rc::new(BoundChange {
                col,
                lb: node_lb,
                ub: floor,
                parent: node.chain.clone(),
            });
            let up = Rc::new(BoundChange {
                col,
                lb: floor + 1.0,
                ub: node_ub,
                parent: node.chain.clone(),
            });
            if floor >= node_lb - 1e-9 {
                let id = self.core.next_id;
                self.core.next_id += 1;
                self.core.heap.push(OrdNode(Node {
                    id,
                    est: node_bound,
                    depth: node.depth + 1,
                    chain: Some(down),
                    basis: child_basis.clone(),
                    seed: factors.clone(),
                }));
            }
            if floor + 1.0 <= node_ub + 1e-9 {
                let id = self.core.next_id;
                self.core.next_id += 1;
                self.core.heap.push(OrdNode(Node {
                    id,
                    est: node_bound,
                    depth: node.depth + 1,
                    chain: Some(up),
                    basis: child_basis,
                    seed: factors,
                }));
            }
        }

        // Determine final status.
        let status = if budget_hit {
            if self.core.incumbent.is_some() {
                MilpStatus::Feasible
            } else {
                MilpStatus::Unknown
            }
        } else if self.core.incumbent.is_some() {
            MilpStatus::Optimal
        } else if self.core.proven_infeasible_tree || self.core.heap.is_empty() {
            MilpStatus::Infeasible
        } else {
            MilpStatus::Unknown
        };
        let bound = if status == MilpStatus::Optimal {
            self.core.incumbent.as_ref().map(|(o, _)| *o).unwrap_or(0.0)
        } else {
            // Best open bound seen when we stopped.
            self.core.best_open_bound
        };
        SliceVerdict::Finished(status, bound)
    }
}

/// A node relaxation's outcome: the LP solution plus the evaluating
/// workspace's final detached factorisation (the children's seed).
struct NodeEval {
    sol: LpSolution,
    factors: Option<Rc<FactorState>>,
}

/// Evaluates one node LP in `ws`. Pure: the simplex entry point fully
/// resets the workspace's numeric state per solve, and the only
/// cross-solve carry-over — the detached factor cache — is explicitly
/// installed from the node's seed first and detached into the result
/// after, so the outcome depends only on the arguments, never on which
/// solve the workspace served last. The seed is taken by value: the last
/// node to hold its parent's factors moves them in, the others copy.
#[allow(clippy::too_many_arguments, reason = "pure: every input is passed in")]
fn evaluate_node_lp(
    lp: &Problem,
    lp_lb: &[f64],
    lp_ub: &[f64],
    hint: Option<&BasisState>,
    lp_opts: &SimplexOptions,
    token: u64,
    seed: Option<Rc<FactorState>>,
    ws: &mut LpWorkspace,
) -> NodeEval {
    let seed = seed.map(|rc| Rc::try_unwrap(rc).unwrap_or_else(|shared| (*shared).clone()));
    ws.install_factor_state(token, seed);
    let sol = solve_with_bounds_recovering_ws(lp, lp_lb, lp_ub, hint, lp_opts, ws);
    let factors = ws.take_factor_state().map(Rc::new);
    NodeEval { sol, factors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarType};

    fn default_opts() -> MilpOptions {
        MilpOptions::default()
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer variables: one LP solve.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 4.0, 1.0);
        let y = m.add_continuous(0.0, 4.0, 1.0);
        m.add_le(vec![(x, 1.0), (y, 1.0)], 5.0);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c st 3a + 4b + 2c <= 5, binary. Best: a+c = 17.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(10.0);
        let b = m.add_binary(13.0);
        let c = m.add_binary(7.0);
        m.add_le(vec![(a, 3.0), (b, 4.0), (c, 2.0)], 5.0);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 17.0).abs() < 1e-6, "{}", r.objective);
        let x = r.x.unwrap();
        assert_eq!(
            x.iter().map(|v| v.round() as i32).collect::<Vec<_>>(),
            vec![1, 0, 1]
        );
    }

    #[test]
    fn integer_rounding_not_optimal() {
        // Classic example where LP rounding fails:
        // max x + y st 2x + 2y <= 3, x,y binary => optimum 1 (not 1.5 rounded).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_le(vec![(x, 2.0), (y, 2.0)], 3.0);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 3.0);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Infeasible);
        assert!(r.x.is_none());
    }

    #[test]
    fn general_integers() {
        // min 2x + 3y st x + y >= 7.5, x,y integer in [0, 10] => 16 at (7.5->
        // e.g. x=8 y=0 cost 16; check alternatives: x=7,y=1 => 17).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 2.0);
        let y = m.add_var(VarType::Integer, 0.0, 10.0, 3.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 7.5);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 16.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constrained_assignment() {
        // 2x2 assignment: min cost matrix [[1, 10], [10, 1]]; optimum 2.
        let mut m = Model::new(Sense::Minimize);
        let x00 = m.add_binary(1.0);
        let x01 = m.add_binary(10.0);
        let x10 = m.add_binary(10.0);
        let x11 = m.add_binary(1.0);
        m.add_eq(vec![(x00, 1.0), (x01, 1.0)], 1.0);
        m.add_eq(vec![(x10, 1.0), (x11, 1.0)], 1.0);
        m.add_eq(vec![(x00, 1.0), (x10, 1.0)], 1.0);
        m.add_eq(vec![(x01, 1.0), (x11, 1.0)], 1.0);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(10.0);
        let b = m.add_binary(13.0);
        let c = m.add_binary(7.0);
        m.add_le(vec![(a, 3.0), (b, 4.0), (c, 2.0)], 5.0);
        // Start at the suboptimal {b} = 13.
        let start = [0.0, 1.0, 0.0];
        let opts = MilpOptions {
            max_nodes: 1, // only the root
            ..default_opts()
        };
        let warm = MilpWarmStart {
            start: Some(&start),
            root_basis: None,
        };
        let r = solve_preemptible(&m, &opts, warm, None, None, usize::MAX)
            .done()
            .expect("usize::MAX quantum never suspends");
        // Even with a tiny budget we must report at least the start value.
        assert!(r.objective >= 13.0 - 1e-9);
        assert!(r.has_solution());
    }

    #[test]
    fn node_budget_reports_feasible() {
        // A larger knapsack that needs more than one node, with a tight
        // budget: status must be Feasible (not Optimal) when budget binds,
        // or Optimal if the heuristics close the gap first.
        let mut m = Model::new(Sense::Maximize);
        let weights = [5.0, 4.0, 3.0, 7.0, 6.0, 2.0, 9.0, 8.0];
        let values = [10.0, 7.0, 5.0, 13.0, 11.0, 3.0, 16.0, 14.0];
        let vars: Vec<_> = values.iter().map(|&v| m.add_binary(v)).collect();
        m.add_le(
            vars.iter()
                .zip(weights.iter())
                .map(|(&v, &w)| (v, w))
                .collect(),
            20.0,
        );
        let mut opts = default_opts();
        opts.max_nodes = 3;
        let r = solve(&m, &opts);
        assert!(matches!(
            r.status,
            MilpStatus::Feasible | MilpStatus::Optimal
        ));
        if let Some(x) = &r.x {
            assert!(m.is_feasible(x, 1e-6));
        }
    }

    #[test]
    fn dive_every_zero_disables_the_root_dive() {
        // max 8a + 11b + 6c + 4d st 5a + 7b + 4c + 3d <= 14: the root LP
        // takes a and b whole and half of c, so a one-node search has an
        // incumbent only if the root dives.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = [8.0, 11.0, 6.0, 4.0]
            .iter()
            .map(|&v| m.add_binary(v))
            .collect();
        m.add_le(
            vars.iter()
                .zip([5.0, 7.0, 4.0, 3.0])
                .map(|(&v, w)| (v, w))
                .collect(),
            14.0,
        );
        let at_root = |dive_every| {
            solve(
                &m,
                &MilpOptions {
                    max_nodes: 1,
                    dive_every,
                    ..default_opts()
                },
            )
        };
        let no_dive = at_root(0);
        assert_eq!(no_dive.status, MilpStatus::Unknown);
        assert!(!no_dive.has_solution());
        let dived = at_root(1);
        assert_eq!(dived.status, MilpStatus::Feasible);
        assert!(m.is_feasible(dived.x.as_deref().expect("dive incumbent"), 1e-6));
    }

    fn ord_node(id: u64, est: f64, depth: usize) -> OrdNode {
        OrdNode(Node {
            id,
            est,
            depth,
            chain: None,
            basis: None,
            seed: None,
        })
    }

    #[test]
    fn node_order_is_total_with_nan_bounds_last() {
        let nan = ord_node(0, f64::NAN, 5);
        let finite = ord_node(1, 1e9, 0);
        assert_eq!(nan.cmp(&finite), Ordering::Less, "NaN is the worst bound");
        assert_eq!(finite.cmp(&nan), Ordering::Greater);
        assert_eq!(nan.cmp(&ord_node(2, f64::INFINITY, 0)), Ordering::Less);
        // Two NaN bounds tie on the bound and fall through to depth, then id.
        assert_eq!(nan.cmp(&ord_node(3, f64::NAN, 4)), Ordering::Greater);
        assert_eq!(nan.cmp(&ord_node(3, -f64::NAN, 5)), Ordering::Greater);
        // Numbers order as before, ±0 tie included.
        assert_eq!(
            ord_node(4, 1.0, 0).cmp(&ord_node(5, 2.0, 9)),
            Ordering::Greater
        );
        assert_eq!(
            ord_node(4, 0.0, 1).cmp(&ord_node(5, -0.0, 1)),
            Ordering::Greater
        );
        assert_eq!(
            ord_node(6, -0.0, 1).cmp(&ord_node(5, 0.0, 1)),
            Ordering::Less
        );
        // Pops are a function of the contents: every insertion order of a
        // frontier holding NaN bounds pops the same sequence.
        let frontier = [
            (0, f64::NAN, 2),
            (1, 3.0, 1),
            (2, f64::NAN, 2),
            (3, -1.0, 4),
            (4, 3.0, 2),
            (5, 0.0, 0),
            (6, -0.0, 0),
        ];
        let pops = |order: &[usize]| {
            let mut heap: BinaryHeap<OrdNode> = order
                .iter()
                .map(|&k| {
                    let (id, est, depth) = frontier[k];
                    ord_node(id, est, depth)
                })
                .collect();
            std::iter::from_fn(|| heap.pop().map(|n| n.0.id)).collect::<Vec<_>>()
        };
        let want = pops(&[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(want, vec![3, 5, 6, 4, 1, 0, 2]);
        for order in [
            [6, 5, 4, 3, 2, 1, 0],
            [2, 0, 6, 1, 5, 3, 4],
            [4, 2, 3, 0, 1, 6, 5],
        ] {
            assert_eq!(pops(&order), want);
        }
    }

    #[test]
    fn maximisation_bound_direction() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(5.0);
        let b = m.add_binary(4.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        let r = solve(&m, &default_opts());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 5.0).abs() < 1e-6);
        assert!(r.best_bound >= r.objective - 1e-6);
        assert!(r.gap < 1e-5);
    }
}

#[cfg(test)]
mod warm_start_tests {
    use super::*;
    use crate::model::Sense;

    fn solve_from(m: &Model, opts: &MilpOptions, warm: MilpWarmStart<'_>) -> MilpResult {
        solve_preemptible(m, opts, warm, None, None, usize::MAX)
            .done()
            .expect("usize::MAX quantum never suspends")
    }

    fn knapsack(n: usize) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_binary(((i * 17) % 23 + 3) as f64))
            .collect();
        m.add_le(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i * 11) % 13 + 2) as f64))
                .collect(),
            (3 * n) as f64 / 2.0,
        );
        m
    }

    #[test]
    fn root_basis_reuse_matches_cold_result() {
        let m = knapsack(14);
        let opts = MilpOptions::default();
        let cold = solve(&m, &opts);
        assert_eq!(cold.status, MilpStatus::Optimal);
        assert!(cold.root_basis.is_some(), "root basis must be exported");
        let warm = solve_from(
            &m,
            &opts,
            MilpWarmStart {
                start: cold.x.as_deref(),
                root_basis: cold.root_basis.as_ref(),
            },
        );
        assert_eq!(warm.status, MilpStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(
            warm.lp_iterations <= cold.lp_iterations,
            "warm {} > cold {} lp iterations",
            warm.lp_iterations,
            cold.lp_iterations
        );
    }

    #[test]
    fn stale_basis_from_smaller_model_is_repaired() {
        // Solve a 10-var knapsack, then reuse its root basis on a 14-var
        // one: the four appended columns must enter nonbasic and the
        // result must match a cold solve exactly.
        let small = knapsack(10);
        let opts = MilpOptions::default();
        let small_r = solve(&small, &opts);
        let big = knapsack(14);
        let cold = solve(&big, &opts);
        let warm = solve_from(
            &big,
            &opts,
            MilpWarmStart {
                start: None,
                root_basis: small_r.root_basis.as_ref(),
            },
        );
        assert_eq!(warm.status, MilpStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;
    use crate::model::Sense;

    /// max a + b st a + b <= 2 (binaries): optimum (1,1). A filter that
    /// rejects (1,1) must yield the next-best accepted point.
    #[test]
    fn incumbent_filter_rejects_solutions() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(2.0);
        let b = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 2.0);
        let reject_both = |x: &[f64]| !(x[0] > 0.5 && x[1] > 0.5);
        let r = solve_preemptible(
            &m,
            &MilpOptions::default(),
            MilpWarmStart::default(),
            Some(&reject_both),
            None,
            usize::MAX,
        )
        .done()
        .expect("usize::MAX quantum never suspends");
        // (1,1) filtered out; best accepted is (1,0) = 2.
        if let Some(x) = &r.x {
            assert!(reject_both(x), "returned solution violates the filter");
            assert!(r.objective <= 2.0 + 1e-9);
        }
    }

    /// The warm start bypasses the filter (caller vouches for it).
    #[test]
    fn start_bypasses_filter() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0)], 1.0);
        let reject_all = |_: &[f64]| false;
        let start = [1.0];
        let opts = MilpOptions {
            max_nodes: 1,
            ..MilpOptions::default()
        };
        let warm = MilpWarmStart {
            start: Some(&start),
            root_basis: None,
        };
        let r = solve_preemptible(&m, &opts, warm, Some(&reject_all), None, usize::MAX)
            .done()
            .expect("usize::MAX quantum never suspends");
        assert!(r.has_solution());
        assert!((r.objective - 1.0).abs() < 1e-9);
    }
}
