//! The compressed LP lowering every branch & bound search runs over, cached
//! and reused across B&B constructions.
//!
//! Every search lowers through an [`LpCacheSlot`]: the caller's, or a
//! private, fresh one ([`crate::solver::solve`], the planner's cold rounds),
//! whose first refresh is simply the lowering. A lowering from scratch reads
//! every variable and every term of the model — acceptable once, but the
//! SQPR planner constructs up to three [`crate::solver`] searches per
//! submission (cutting-plane rounds) over a persistent model skeleton that
//! is tens of times larger than the LP a round actually solves.
//!
//! # One reuse rule
//!
//! A refresh reuses the cached lowering only while nothing it was derived
//! from moved: the same model lineage (`Model::lineage`: the same object,
//! grown and re-bounded through its API), the same
//! [`Model::structure_version`] and the same [`Model::bounds_stamp`]. Rows
//! added since — the cut rounds of one submission — are lowered and
//! **appended** in place; appended rows keep every existing column and row
//! index stable, so LP bases remain valid warm-start hints across rounds.
//! Every other refresh is a **rebuild**, which folds exactly the columns
//! that are bound-fixed now. Within one lowering the bounds therefore never
//! move, and the one memo kept beside it — the last seed incumbent
//! validated — only ever meets appended rows. Presolve keeps none: every
//! search sweeps its lowering's live terms from the model's bounds.
//!
//! # What a rebuild reads
//!
//! Terms are read for the rows that can have changed, and for no others.
//! The slot keeps, beside the lowering, an exact snapshot of every
//! variable's bounds and of how much of its row list
//! (`Model::rows_of_var`) it has read, plus the value of every constant
//! row (`Side`). A rebuild compares the snapshot with the model — flat
//! passes over the variables, no hashing — and re-reads the rows of the
//! variables that differ; a row none of whose variables moved folds to the
//! same constant. The kept rows are exactly the rows of the kept columns,
//! found through the row lists, and the constant rows keep their values
//! unless one of their variables moved, entered or left the LP. The
//! snapshot is good for one model lineage; a clone, another model or
//! [`LpCacheSlot::invalidate`] voids it, and the rebuild is then the full
//! pass.
//!
//! The same tables serve point validation (`Side::candidate_is_feasible`):
//! a point that sits on the fixed values gives the constant rows the values
//! the slot already holds, so only the kept columns and rows are checked per
//! point. They validate the seed and every candidate incumbent of every
//! search — a suspended search takes the lowering and its tables along, so
//! its resumed slices validate the same way. The planner judges its
//! admitting start here too ([`LpCacheSlot::start_is_feasible`]), before
//! the search: that refresh is the search's own, which then finds the
//! lowering current and counts nothing, and the verdict is remembered with
//! the lowering. The full pass is the reference: `Model::lower_reduced` for
//! the lowering, [`Model::is_feasible`] for a point. Debug builds replay it
//! behind every refresh and every validation and assert equality; the
//! property tests do so in release.
//!
//! # What a sweep reads
//!
//! A kept row holds a term of every column it ever met — the planner's
//! capacity rows one of every query — and most of those columns are folded
//! at zero. Presolve's sweeps and point validation read a kept row through
//! its *live* terms (`LiveRows`), listed per LP row in the same pass that
//! folds it (rebuild and appended rows alike):
//!
//! - every free term, and every folded term whose product is not an exact
//!   zero (a nonzero fixed value, or a coefficient that is not finite), in
//!   model order;
//! - per (sign of `a`, integrality), the one term fixed at zero with the
//!   smallest `|a|`.
//!
//! A term fixed at zero adds an exact `±0` to an activity sum, which leaves
//! every partial sum's bits as they were (a sum from `+0` never reads
//! `-0`), so skipping it changes no sum. The one other thing such a term
//! can do is end a presolve sweep `Infeasible`: when its row is violated by
//! more than `|a|·1e-9` but at most `1e-9` (`crate::presolve`). That test
//! is monotone in `|a|`, so it fires for a term of a class iff it fires for
//! the class's smallest `|a|`, and the representatives keep every verdict.
//! The rebuild itself still folds each kept row in full, for its constant.
//!
//! The slot also owns the [`LpWorkspace`] every construction it serves
//! runs in, so its allocations outlive a tree. A workspace is scratch
//! only: factorisations are passed from solve to solve as an argument
//! (`crate::solver`), between the nodes of one tree only.
//!
//! Staleness can cost a re-scan, never correctness: the checks run on
//! every `refresh`. The one mutation the stamp checks cannot see — an
//! in-place *swap* of same-length constraints without a
//! `structure_version` bump — is impossible through the [`Model`] API
//! (every term-editing call bumps the version; constraints are
//! append-only) and is additionally caught by the debug-build replay of the
//! full lowering.

use crate::model::{
    activity, const_row_violated, fixed_off_integer, fold_row, shifted_bounds, AdjacencyCheck,
    LoweredLp, LpMap, Model, SearchGeom, VarDef, VarId, VarType,
};
use crate::presolve::BoundsMirror;
use sqpr_lp::{LpWorkspace, ProblemBuilder, Triplet};

/// Counters describing how the cache behaved (exposed for ablation
/// reporting and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh lowerings: cold constructions, and every refresh after a
    /// bound moved or the structure grew.
    pub rebuilds: usize,
    /// Reuses of the cached lowering: no bound moved since it was built,
    /// and the rows added meanwhile (cut rounds) were appended.
    pub patches: usize,
    /// Always 0: the in-place bound patch it counted is gone. Kept while
    /// the benchmark's per-layer report names it.
    pub refix_patches: usize,
    /// Cut rows appended across all reuses.
    pub appended_rows: usize,
}

impl CacheStats {
    /// Counter deltas accumulated since `earlier` (a snapshot of the same
    /// monotone counters). Saturating: if the slot was reset between the
    /// snapshots (context invalidation replaces it with a fresh slot), the
    /// delta clamps at zero instead of underflowing.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
            patches: self.patches.saturating_sub(earlier.patches),
            refix_patches: self.refix_patches.saturating_sub(earlier.refix_patches),
            appended_rows: self.appended_rows.saturating_sub(earlier.appended_rows),
        }
    }

    /// Accumulates another counter set into this one.
    /// `cache_stats_add_accumulates_every_field` builds its operands as
    /// exhaustive literals: a new counter does not compile there until the
    /// test sets it, and then fails the test until this sum carries it.
    pub fn add(&mut self, other: &CacheStats) {
        self.rebuilds += other.rebuilds;
        self.patches += other.patches;
        self.refix_patches += other.refix_patches;
        self.appended_rows += other.appended_rows;
    }

    /// Fraction of constructions served by a reuse (0 when no
    /// constructions were recorded).
    pub fn patch_rate(&self) -> f64 {
        let total = self.rebuilds + self.patches;
        if total == 0 {
            0.0
        } else {
            self.patches as f64 / total as f64
        }
    }
}

/// A slot owning at most one cached lowering; see the module docs.
#[derive(Debug, Default)]
pub struct LpCacheSlot {
    inner: Option<LpCache>,
    stats: CacheStats,
    /// [`Self::start_is_feasible`] refreshed the lowering for the next
    /// search, which has not claimed it yet.
    judged: bool,
    /// LP scratch buffers shared by every B&B construction served from
    /// this slot.
    ws: LpWorkspace,
}

/// Verdict of one seed-incumbent validation ([`Model::is_feasible`]), with
/// everything it depended on: the point, the tolerance and how many rows
/// existed. The model's structure and bounds are the lowering's own (by
/// stamp; a lowering is reused only while they stand).
#[derive(Debug, Clone)]
struct StartCheck {
    x: Vec<f64>,
    tol: f64,
    structure_version: u64,
    bounds_stamp: u64,
    ncons: usize,
    feasible: bool,
    /// [`Model::objective_value`] of `x`; stands while the structure does.
    objective: f64,
}

#[derive(Debug)]
struct LpCache {
    lowered: LoweredLp,
    /// Model identity the layout was derived from. The lineage says the
    /// variables, rows and terms the cache has read are still a prefix of
    /// the model's; the version, that nothing was added to them since.
    lineage: u64,
    structure_version: u64,
    /// Model constraints lowered so far (kept + dropped); anything beyond
    /// is an appended row. Constraints are append-only by the [`Model`]
    /// API contract — any in-place term edit bumps `structure_version` —
    /// so indices below this watermark always mean the same row.
    ncons_lowered: usize,
    /// [`Model::bounds_stamp`] the lowering was built under.
    bounds_stamp: u64,
    side: Side,
}

/// What the cache keeps beside the lowering — the part a solver
/// construction borrows mutably, and the part that outlives a rebuild.
///
/// The per-variable arrays are an exact snapshot of what the model held when
/// the cache last looked (never a hash): comparing them with the model finds
/// the variables that moved, [`Model::rows_of_var`] the rows those touch, and
/// only those rows are read again. A row none of whose variables moved folds
/// to the same constant, so what was derived from it stands.
#[derive(Debug, Clone, Default)]
pub(crate) struct Side {
    /// The model's bounds (and integrality) per variable, as of the last
    /// refresh; presolve's working copy in between.
    pub mirror: BoundsMirror,
    /// How much of each variable's row list has been read.
    adj_len: Vec<u32>,
    /// Per kept LP row: the constant its folded terms add up to at the
    /// mirror's bounds, in model order.
    row_shift: Vec<f64>,
    /// Per model constraint that is constant under the layout: its value at
    /// the mirror's bounds, summed in model order. (Entries of kept rows are
    /// stale and never read.)
    const_act: Vec<f64>,
    /// A folded variable is fixed at a value a candidate point would not
    /// reproduce ([`crate::model::VarDef::fixed_value_is_plain`]): candidates
    /// then leave the fixed values, and the folded variables themselves need
    /// a look. Never so on the planner's models.
    odd_folded: bool,
    /// Per tolerance a point was validated at lately: whether every constant
    /// row, at its [`Self::const_act`], passes [`Model::is_feasible`]'s row
    /// check. Current after every refresh — taken in the pass that judges
    /// the constant rows for the lowering, and for each row appended since.
    const_rows_admit: Vec<(f64, bool)>,
    /// The seed incumbent most recently validated against this lowering.
    start_check: Option<StartCheck>,
    /// Marks of the refresh in progress: `row_mark[r] == epoch` once row `r`
    /// is listed as kept or to be re-read.
    row_mark: Vec<u32>,
    epoch: u32,
    /// Constraint rows whose terms were read so far — by rebuilds, appended
    /// rows, presolve sweeps and point validation.
    pub rows_read: usize,
    /// Per kept LP row, the terms presolve's sweeps and point validation
    /// read of it; see the module docs ("What a sweep reads").
    pub live: LiveRows,
    /// Terms read so far by presolve sweeps and point validation (the
    /// rebuild's own reads are in [`Self::rows_read`]).
    pub terms_read: usize,
}

/// The live terms of a lowering's kept rows, row after row: a row's free
/// terms and the folded terms whose product is not an exact zero, in model
/// order, then per (sign, integrality) the zero-fixed term of smallest
/// `|a|`. See the module docs ("What a sweep reads").
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveRows {
    terms: Vec<(VarId, f64)>,
    /// Where each row's terms end in `terms`.
    ends: Vec<usize>,
    /// The row being built: per (sign, integrality), its zero-fixed term of
    /// smallest `|a|` so far.
    least: [Option<(VarId, f64)>; 4],
}

/// What a solver construction borrows from the slot.
pub(crate) struct SolverParts<'a> {
    pub lowered: &'a LoweredLp,
    pub side: &'a mut Side,
    /// The slot's workspace.
    pub ws: &'a mut LpWorkspace,
}

impl LpCacheSlot {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops the cached lowering and everything remembered about the model
    /// (the planner calls this alongside its own skeleton invalidation; a
    /// stale cache would also be caught by the validity checks, this just
    /// frees the memory eagerly). The workspace and its allocations
    /// survive.
    pub fn invalidate(&mut self) {
        self.inner = None;
    }

    /// The cached lowering, if one is populated.
    #[cfg(test)]
    pub(crate) fn lowered(&self) -> Option<&LoweredLp> {
        self.inner.as_ref().map(|c| &c.lowered)
    }

    /// Constraint rows read through this slot so far; see
    /// [`Side::rows_read`].
    #[cfg(test)]
    pub(crate) fn rows_read(&self) -> usize {
        self.inner.as_ref().map_or(0, |c| c.side.rows_read)
    }

    /// Terms read by presolve sweeps and point validation through this slot
    /// so far; see [`Side::terms_read`].
    #[cfg(test)]
    pub(crate) fn terms_read(&self) -> usize {
        self.inner.as_ref().map_or(0, |c| c.side.terms_read)
    }

    /// Makes the cached lowering current for `model` and returns it:
    /// appends rows in place while no bound moved, rebuilds otherwise.
    /// (Solver constructions go through
    /// [`Self::refresh_solver`], which also hands out the workspace.)
    #[cfg(test)]
    pub(crate) fn refresh(&mut self, model: &Model) -> &LoweredLp {
        self.refresh_solver(model).lowered
    }

    /// Makes the cached lowering current for `model` — appending the rows
    /// added since while lineage, structure and bounds stand, rebuilding
    /// otherwise — and hands it out with the slot's workspace and what the
    /// cache keeps beside the lowering.
    pub(crate) fn refresh_solver(&mut self, model: &Model) -> SolverParts<'_> {
        let reusable = self.inner.as_ref().is_some_and(|c| {
            c.lineage == model.lineage
                && c.structure_version == model.structure_version()
                && c.bounds_stamp == model.bounds_stamp
                && model.num_cons() >= c.ncons_lowered
        });
        let judged = std::mem::take(&mut self.judged);
        let cache = match self.inner.take() {
            // The refresh that judged the start, current still, was this one.
            Some(cache) if judged && reusable && cache.ncons_lowered == model.num_cons() => cache,
            Some(mut cache) if reusable => {
                self.stats.appended_rows += cache.append_new_rows(model);
                self.stats.patches += 1;
                cache
            }
            old => {
                self.stats.rebuilds += 1;
                LpCache::rebuild(old, model)
            }
        };
        #[cfg(debug_assertions)]
        cache.verify_against_full_pass(model);
        let cache = self.inner.insert(cache);
        SolverParts {
            lowered: &cache.lowered,
            side: &mut cache.side,
            ws: &mut self.ws,
        }
    }

    /// Judges `x` as the seed incumbent of the next search over `model`:
    /// [`Model::is_feasible`]`(x, tol)`, taken on the lowering that search
    /// will run over — the refresh happens here, and the search's own finds
    /// the lowering current and counts nothing. The verdict is remembered
    /// with the lowering, so a search seeded with `x` at `tol` does not
    /// validate it again.
    pub fn start_is_feasible(&mut self, model: &Model, x: &[f64], tol: f64) -> bool {
        let parts = self.refresh_solver(model);
        let feasible = parts
            .side
            .start_objective(model, &parts.lowered.geom.map, x, tol)
            .is_some();
        self.judged = true;
        feasible
    }

    /// The lowering of `model` and its tables, for a search that outlives
    /// its borrow of the slot (a suspended one), right after the refresh it
    /// ran over: moved out when `take` — a private slot, dropped next — and
    /// cloned otherwise, so the slot keeps serving. (A slot not refreshed
    /// yet lowers `model` as a refresh would.)
    pub(crate) fn search_input(&mut self, model: &Model, take: bool) -> (LoweredLp, Side) {
        let cache = self
            .inner
            .take()
            .unwrap_or_else(|| LpCache::rebuild(None, model));
        if take {
            return (cache.lowered, cache.side);
        }
        let cache = self.inner.insert(cache);
        (cache.lowered.clone(), cache.side.clone())
    }
}

impl LpCache {
    /// Lowers `model` afresh, folding what is bound-fixed right now — the
    /// only lowering a solve runs, bit for bit the full pass
    /// (`Model::lower_reduced`), at the cost of the free
    /// columns and the rows they occur in (read off
    /// [`Model::rows_of_var`]) plus flat passes over the variables. The
    /// constant rows' values carry over from `old` where it lowered an
    /// earlier state of the same model, and are summed again only for rows
    /// with a variable that moved or changed sides since; any other `old`
    /// (none, another model, a clone) makes every variable new and this the
    /// full pass.
    fn rebuild(old: Option<LpCache>, model: &Model) -> LpCache {
        let (mut col_of_var, mut side, old_ncons) = match old.filter(|c| c.lineage == model.lineage)
        {
            Some(c) => (c.lowered.geom.map.col_of_var, c.side, c.ncons_lowered),
            None => (Vec::new(), Side::default(), 0),
        };
        let (nvars, ncons) = (model.num_vars(), model.num_cons());
        let known = col_of_var.len();
        side.start_check = None;
        side.live.clear();
        side.begin_marks(ncons);
        side.const_act.resize(ncons, 0.0);

        // The columns, and the variables whose rows have to be read again.
        let flip = model.min_flip();
        let mut b = ProblemBuilder::new();
        let mut var_of_col = Vec::new();
        let mut lp_integers = Vec::new();
        let mut fixed_obj_min = 0.0;
        let mut infeasible_fixed_row = false;
        side.odd_folded = false;
        col_of_var.resize(nvars, None);
        // (variable, how much of its row list is old news)
        let mut reread: Vec<(usize, usize)> = Vec::new();
        for (j, v) in model.vars.iter().enumerate() {
            let folds = v.is_fixed();
            // New, moved, or on the other side of the layout: all of its
            // rows; otherwise the ones its list grew by.
            let stale = j >= known || side.moved(j, v) || col_of_var[j].is_some() == folds;
            let rows_known = if stale { 0 } else { side.adj_len[j] as usize };
            if stale || rows_known < model.rows_of_var[j].len() {
                reread.push((j, rows_known));
                side.sync(model, j);
            }
            if folds {
                if !v.fixed_value_is_plain() {
                    side.odd_folded = true;
                    infeasible_fixed_row |= v.ty == VarType::Integer && fixed_off_integer(v.lb);
                }
                fixed_obj_min += flip * v.obj * v.lb;
                if stale {
                    col_of_var[j] = None;
                }
                continue;
            }
            let col = b.add_col(flip * v.obj, v.lb, v.ub);
            col_of_var[j] = Some(col);
            var_of_col.push(j);
            if v.ty == VarType::Integer {
                lp_integers.push(col);
            }
        }

        // The kept rows: exactly those a kept column occurs in.
        let mut cons_of_row: Vec<usize> = Vec::new();
        for &j in &var_of_col {
            for &r in &model.rows_of_var[j] {
                if side.mark(r as usize) {
                    cons_of_row.push(r as usize);
                }
            }
        }
        cons_of_row.sort_unstable();
        side.row_shift.clear();
        let mut adjacency = AdjacencyCheck::new(var_of_col.len());
        let mut adjacency_exact = true;
        for (r, &ci) in cons_of_row.iter().enumerate() {
            let c = &model.cons[ci];
            let live = &mut side.live;
            let fold = fold_row(&model.vars, &col_of_var, &c.terms, |v, a, col| {
                live.add(&model.vars, v, a, col.is_some());
                if let Some(col) = col {
                    adjacency_exact &= adjacency.term_is_exact(r, col, a);
                    b.set_coeff(r, col, a);
                }
            });
            live.end_row();
            let (lb, ub) = shifted_bounds(c.lb, c.ub, fold.shift);
            b.add_row(lb, ub);
            side.row_shift.push(fold.shift);
        }
        side.rows_read += cons_of_row.len();

        // The constant rows whose value can have changed: those of a
        // variable that moved, entered or left the LP, or is new, and the
        // rows added since.
        for (j, rows_known) in reread {
            for &r in &model.rows_of_var[j][rows_known..] {
                if side.mark(r as usize) {
                    side.read_const_row(model, &col_of_var, r as usize);
                }
            }
        }
        for r in old_ncons..ncons {
            if side.mark(r) {
                side.read_const_row(model, &col_of_var, r);
            }
        }
        infeasible_fixed_row |= side.judge_const_rows(model, &cons_of_row);

        LpCache {
            lowered: LoweredLp {
                lp: b.build(),
                geom: SearchGeom {
                    map: LpMap {
                        col_of_var,
                        var_of_col,
                        cons_of_row,
                        fixed_obj_min,
                        infeasible_fixed_row,
                        adjacency_exact,
                    },
                    lp_integers,
                },
            },
            lineage: model.lineage,
            structure_version: model.structure_version(),
            ncons_lowered: ncons,
            bounds_stamp: model.bounds_stamp,
            side,
        }
    }

    /// Lowers and appends every model constraint added since the cached
    /// lowering (cut rows); returns how many LP rows were appended.
    fn append_new_rows(&mut self, model: &Model) -> usize {
        if self.ncons_lowered == model.num_cons() {
            return 0;
        }
        let (l, side) = (&mut self.lowered, &mut self.side);
        let map = &mut l.geom.map;
        side.const_act.resize(model.num_cons(), 0.0);
        let mut bounds: Vec<(f64, f64)> = Vec::new();
        let mut entries: Vec<Triplet> = Vec::new();
        let mut next_row = l.lp.nrows();
        let mut adjacency = AdjacencyCheck::new(l.lp.ncols());
        for ci in self.ncons_lowered..model.num_cons() {
            let c = &model.cons[ci];
            let live = &mut side.live;
            let fold = fold_row(&model.vars, &map.col_of_var, &c.terms, |v, value, col| {
                live.add(&model.vars, v, value, col.is_some());
                if let Some(col) = col {
                    map.adjacency_exact &= adjacency.term_is_exact(next_row, col, value);
                    entries.push(Triplet {
                        row: next_row,
                        col,
                        value,
                    });
                }
            });
            side.rows_read += 1;
            // The new rows are what the row lists of their variables grew by.
            for &(v, _) in &c.terms {
                side.adj_len[v.index()] = model.rows_of_var[v.index()].len() as u32;
            }
            if fold.kept == 0 {
                side.live.drop_row();
                map.infeasible_fixed_row |= const_row_violated(fold.shift, c.lb, c.ub);
                side.const_act[ci] = fold.shift;
                for (tol, admit) in &mut side.const_rows_admit {
                    *admit &= c.admits(fold.shift, *tol);
                }
                continue;
            }
            side.live.end_row();
            bounds.push(shifted_bounds(c.lb, c.ub, fold.shift));
            map.cons_of_row.push(ci);
            side.row_shift.push(fold.shift);
            next_row += 1;
        }
        let appended = bounds.len();
        if appended > 0 {
            l.lp.append_rows(&bounds, &entries);
        }
        self.ncons_lowered = model.num_cons();
        appended
    }

    /// The reference the shortcuts answer to, run after every refresh in
    /// debug builds and by the property tests in release: the full pass
    /// ([`Model::lower_reduced`], every row folded again) must give this
    /// lowering and these side tables — the live rows included — bit for
    /// bit. Also what catches an in-place mutation of already-lowered
    /// constraints that forgot to bump `structure_version` (e.g. a
    /// same-length constraint swap).
    #[cfg(any(test, debug_assertions))]
    fn verify_against_full_pass(&self, model: &Model) {
        let (was, side) = (&self.lowered, &self.side);
        let map = &was.geom.map;
        let now = model.lower_reduced();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert!(
            map.cons_of_row == now.geom.map.cons_of_row && was.lp.matrix() == now.lp.matrix(),
            "a cached row changed under the cache without a structure_version bump"
        );
        assert_eq!(
            map.col_of_var, now.geom.map.col_of_var,
            "a model bound moved under the cache without renewing bounds_stamp"
        );
        assert_eq!(map.var_of_col, now.geom.map.var_of_col);
        assert_eq!(was.geom.lp_integers, now.geom.lp_integers);
        assert_eq!(bits(was.lp.objective()), bits(now.lp.objective()));
        assert!(
            bits(was.lp.col_bounds().0) == bits(now.lp.col_bounds().0)
                && bits(was.lp.col_bounds().1) == bits(now.lp.col_bounds().1)
                && bits(was.lp.row_bounds().0) == bits(now.lp.row_bounds().0)
                && bits(was.lp.row_bounds().1) == bits(now.lp.row_bounds().1)
                && map.fixed_obj_min.to_bits() == now.geom.map.fixed_obj_min.to_bits()
                && map.infeasible_fixed_row == now.geom.map.infeasible_fixed_row,
            "a model bound moved under the cache without renewing bounds_stamp"
        );
        assert_eq!(map.adjacency_exact, now.geom.map.adjacency_exact);
        assert!(
            side.mirror.mirrors(model),
            "the bounds mirror lags the model"
        );
        let mut kept = map.cons_of_row.iter().peekable();
        let mut const_rows_admit: Vec<(f64, bool)> = side
            .const_rows_admit
            .iter()
            .map(|&(tol, _)| (tol, true))
            .collect();
        let mut live = LiveRows::default();
        for (ci, c) in model.cons.iter().enumerate() {
            let fold = fold_row(&model.vars, &map.col_of_var, &c.terms, |v, a, col| {
                live.add(&model.vars, v, a, col.is_some());
            });
            if kept.next_if_eq(&&ci).is_some() {
                live.end_row();
                let row = map.cons_of_row.len() - kept.len() - 1;
                assert_eq!(
                    side.row_shift[row].to_bits(),
                    fold.shift.to_bits(),
                    "shift of kept row {row} (constraint {ci})"
                );
            } else {
                live.drop_row();
                assert_eq!(
                    side.const_act[ci].to_bits(),
                    fold.shift.to_bits(),
                    "value of constant row {ci}"
                );
                for (tol, admit) in &mut const_rows_admit {
                    *admit &= c.admits(fold.shift, *tol);
                }
            }
        }
        let live_bits = |l: &LiveRows| {
            let terms = l.terms.iter().map(|&(v, a)| (v, a.to_bits()));
            (l.ends.clone(), terms.collect::<Vec<_>>())
        };
        assert!(live_bits(&side.live) == live_bits(&live), "live rows");
        assert_eq!(side.const_rows_admit, const_rows_admit);
        for (j, rows) in model.rows_of_var.iter().enumerate() {
            assert_eq!(
                side.adj_len[j] as usize,
                rows.len(),
                "rows read of variable {j}"
            );
        }
        let odd = model
            .vars
            .iter()
            .zip(&map.col_of_var)
            .any(|(v, col)| col.is_none() && !v.fixed_value_is_plain());
        assert_eq!(side.odd_folded, odd);
    }
}

/// Writes the kept columns of a compressed-LP point into the model-space
/// point `x`, integers snapped exactly.
fn expand_kept(geom: &SearchGeom, x_lp: &[f64], x: &mut [f64]) {
    let var_of_col = &geom.map.var_of_col;
    for (&v, &value) in var_of_col.iter().zip(x_lp) {
        x[v] = value;
    }
    for &col in &geom.lp_integers {
        let v = var_of_col[col];
        x[v] = x[v].round();
    }
}

impl LiveRows {
    fn clear(&mut self) {
        self.terms.clear();
        self.ends.clear();
        self.least = [None; 4];
    }

    /// The live terms of kept row `r`.
    pub(crate) fn row(&self, r: usize) -> &[(VarId, f64)] {
        let start = r.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.terms[start..self.ends[r]]
    }

    /// Takes the next term `a·v` of the row being built, `kept` when `v` has
    /// an LP column. A folded variable fixed at zero, with a finite `a`,
    /// adds an exact zero to every sum; of those only the least `|a|` per
    /// (sign, integrality) is live, and none with `a == 0`, which no sweep
    /// reads.
    fn add(&mut self, vars: &[VarDef], v: VarId, a: f64, kept: bool) {
        let var = &vars[v.index()];
        if kept || var.lb != 0.0 || !a.is_finite() {
            self.terms.push((v, a));
        } else if a != 0.0 {
            let class = 2 * usize::from(a < 0.0) + usize::from(var.ty == VarType::Integer);
            let least = &mut self.least[class];
            if least.is_none_or(|(_, b)| a.abs() < b.abs()) {
                *least = Some((v, a));
            }
        }
    }

    /// Closes the row being built.
    fn end_row(&mut self) {
        self.terms
            .extend(self.least.iter_mut().filter_map(Option::take));
        self.ends.push(self.terms.len());
    }

    /// Forgets the row being built (it turned out constant).
    fn drop_row(&mut self) {
        self.terms.truncate(self.ends.last().copied().unwrap_or(0));
        self.least = [None; 4];
    }
}

impl Side {
    /// Whether variable `j`'s bounds differ from what the cache last saw —
    /// by value, bit for bit.
    fn moved(&self, j: usize, v: &crate::model::VarDef) -> bool {
        self.mirror.lb[j].to_bits() != v.lb.to_bits()
            || self.mirror.ub[j].to_bits() != v.ub.to_bits()
    }

    /// Takes variable `j` as the model has it (appending it when it is the
    /// next new variable); its row list counts as read.
    fn sync(&mut self, model: &Model, j: usize) {
        self.mirror.sync(model, j);
        let rows = model.rows_of_var[j].len() as u32;
        if j == self.adj_len.len() {
            self.adj_len.push(rows);
        } else {
            self.adj_len[j] = rows;
        }
    }

    /// Starts a refresh over rows `0..ncons`: nothing marked.
    fn begin_marks(&mut self, ncons: usize) {
        if self.epoch == u32::MAX {
            self.row_mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.row_mark.resize(ncons, 0);
    }

    /// Marks row `r`; whether this was its first mark of the refresh.
    fn mark(&mut self, r: usize) -> bool {
        let first = self.row_mark[r] != self.epoch;
        self.row_mark[r] = self.epoch;
        first
    }

    /// Sums constant row `r` at the current fixed values.
    fn read_const_row(&mut self, model: &Model, col_of_var: &[Option<usize>], r: usize) {
        let fold = fold_row(&model.vars, col_of_var, &model.cons[r].terms, |_, _, _| {});
        debug_assert_eq!(fold.kept, 0, "row {r} has a kept column");
        self.const_act[r] = fold.shift;
        self.rows_read += 1;
    }

    /// Judges the constant rows lowered so far, each at its value and
    /// current bounds, in one flat pass (no terms): whether one of them is
    /// violated as the lowering sees it ([`const_row_violated`]), and, per
    /// tolerance in [`Self::const_rows_admit`], whether all of them pass
    /// [`Model::is_feasible`]'s row check.
    fn judge_const_rows(&mut self, model: &Model, cons_of_row: &[usize]) -> bool {
        let mut violated = false;
        for (_, admit) in &mut self.const_rows_admit {
            *admit = true;
        }
        // Every check widens the row's bounds by a tolerance; none can fail
        // on a value inside the bounds themselves.
        let widening = self.const_rows_admit.iter().all(|&(tol, _)| tol >= 0.0);
        let mut kept = cons_of_row.iter().peekable();
        for (r, (c, &value)) in model.cons.iter().zip(&self.const_act).enumerate() {
            if kept.next_if_eq(&&r).is_some() || (widening && value >= c.lb && value <= c.ub) {
                continue;
            }
            violated |= const_row_violated(value, c.lb, c.ub);
            for (tol, admit) in &mut self.const_rows_admit {
                *admit &= c.admits(value, *tol);
            }
        }
        violated
    }

    /// Expands a compressed-LP point into model space — folded variables at
    /// their fixed values, kept ones from `x_lp`, integers snapped exactly —
    /// and validates it: [`Model::is_feasible`] of the expanded point, which
    /// is left in `x`.
    pub(crate) fn candidate_is_feasible(
        &mut self,
        model: &Model,
        geom: &SearchGeom,
        x_lp: &[f64],
        x: &mut Vec<f64>,
        tol: f64,
    ) -> bool {
        let map = &geom.map;
        x.clear();
        x.extend_from_slice(&self.mirror.lb);
        if self.odd_folded {
            for (j, v) in model.vars.iter().enumerate() {
                if map.col_of_var[j].is_none() && v.ty == VarType::Integer {
                    x[j] = x[j].round();
                }
            }
        }
        expand_kept(geom, x_lp, x);
        let feasible = if self.odd_folded {
            model.is_feasible(x, tol)
        } else {
            self.on_fixed_values_is_feasible(model, map, x, tol)
        };
        debug_assert_eq!(feasible, model.is_feasible(x, tol));
        feasible
    }

    /// [`Model::is_feasible`], at the cost of the kept columns and rows
    /// where the point allows it; any other point gets the full pass.
    #[expect(clippy::float_cmp, reason = "exactly on the fixed values")]
    fn is_feasible(&mut self, model: &Model, map: &LpMap, x: &[f64], tol: f64) -> bool {
        let fixed = &self.mirror.lb;
        let on_fixed_values = x.len() == model.num_vars()
            && map
                .col_of_var
                .iter()
                .enumerate()
                .all(|(j, col)| col.is_some() || x[j] == fixed[j]);
        let feasible = if on_fixed_values {
            self.on_fixed_values_is_feasible(model, map, x, tol)
        } else {
            model.is_feasible(x, tol)
        };
        debug_assert_eq!(feasible, model.is_feasible(x, tol));
        feasible
    }

    /// [`Model::is_feasible`] of a point that sits on the fixed value of
    /// every folded variable. Such a point gives every constant row the
    /// value [`Self::const_act`] holds, so the folded variables and the
    /// constant rows are judged once per tolerance (by the predicates
    /// `is_feasible` applies) and only the kept columns and the kept rows are
    /// checked per point — each row summed over its live terms, in model
    /// order: a term left out adds an exact zero at such a point, so the bits
    /// are the full pass's.
    #[expect(clippy::float_cmp, reason = "verdicts are memoised per tolerance")]
    fn on_fixed_values_is_feasible(
        &mut self,
        model: &Model,
        map: &LpMap,
        x: &[f64],
        tol: f64,
    ) -> bool {
        let const_rows_admit = match self.const_rows_admit.iter().find(|(t, _)| *t == tol) {
            Some(&(_, admit)) => admit,
            None => {
                // A tolerance not asked about lately: judge the rows for it,
                // and from now on with every refresh.
                if self.const_rows_admit.len() == 4 {
                    self.const_rows_admit.remove(0);
                }
                self.const_rows_admit.push((tol, true));
                self.judge_const_rows(model, &map.cons_of_row);
                self.const_rows_admit
                    .last()
                    .is_some_and(|&(_, admit)| admit)
            }
        };
        // A plain fixed value is finite, whole where it must be, and inside
        // its own collapsed bounds; odd ones get a look.
        let folded_vars_admit = (!self.odd_folded && tol >= 0.0)
            || model
                .vars
                .iter()
                .zip(&map.col_of_var)
                .all(|(v, col)| col.is_some() || v.admits(v.lb, tol));
        if !(const_rows_admit && folded_vars_admit) {
            return false;
        }
        self.rows_read += map.cons_of_row.len();
        self.terms_read += self.live.terms.len();
        map.var_of_col
            .iter()
            .all(|&j| model.vars[j].admits(x[j], tol))
            && map
                .cons_of_row
                .iter()
                .enumerate()
                .all(|(r, &ci)| model.cons[ci].admits(activity(self.live.row(r), x), tol))
    }

    /// [`Self::is_feasible`] for a seed incumbent, remembered: the same
    /// point at the same tolerance keeps its verdict on the rows it was
    /// checked against — the lowering's structure and bounds stand — so
    /// only rows appended since (cut rounds) are evaluated. Returns the
    /// point's [`Model::objective_value`] when it is feasible.
    #[expect(clippy::float_cmp, reason = "verdicts are memoised per tolerance")]
    pub(crate) fn start_objective(
        &mut self,
        model: &Model,
        map: &LpMap,
        x: &[f64],
        tol: f64,
    ) -> Option<f64> {
        let known = self.start_check.take().filter(|c| {
            debug_assert!(
                c.structure_version == model.structure_version()
                    && c.bounds_stamp == model.bounds_stamp,
                "a start verdict outlived its lowering"
            );
            c.tol == tol && c.ncons <= model.num_cons() && c.x == x
        });
        let check = match known {
            Some(c) => {
                let feasible = c.feasible && model.rows_feasible(x, tol, c.ncons);
                debug_assert_eq!(feasible, model.is_feasible(x, tol));
                self.rows_read += model.num_cons() - c.ncons;
                StartCheck {
                    ncons: model.num_cons(),
                    feasible,
                    ..c
                }
            }
            None => StartCheck {
                x: x.to_vec(),
                tol,
                structure_version: model.structure_version(),
                bounds_stamp: model.bounds_stamp,
                ncons: model.num_cons(),
                feasible: self.is_feasible(model, map, x, tol),
                objective: model.objective_value(x),
            },
        };
        let verdict = check.feasible.then_some(check.objective);
        self.start_check = Some(check);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarId};
    use sqpr_workload::rng::{Rng, StdRng};

    #[test]
    fn cache_stats_add_accumulates_every_field() {
        // Exhaustive literals, no `..Default::default()`: a new counter does
        // not compile here until the test sets and checks it.
        let a = CacheStats {
            rebuilds: 1,
            patches: 2,
            refix_patches: 3,
            appended_rows: 4,
        };
        let b = CacheStats {
            rebuilds: 10,
            patches: 20,
            refix_patches: 30,
            appended_rows: 40,
        };
        let mut ab = a;
        ab.add(&b);
        let CacheStats {
            rebuilds,
            patches,
            refix_patches,
            appended_rows,
        } = ab;
        assert_eq!(rebuilds, 11);
        assert_eq!(patches, 22);
        assert_eq!(refix_patches, 33);
        assert_eq!(appended_rows, 44);
    }

    fn toy() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(3.0);
        let b = m.add_binary(2.0);
        let c = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0), (c, 1.0)], 2.0);
        m.fix_var(c, 1.0);
        m
    }

    /// Bit-compatibility of a slot's current lowering and side tables
    /// against the full pass.
    fn assert_matches_fresh(slot: &LpCacheSlot, m: &Model) {
        slot.inner
            .as_ref()
            .expect("slot populated")
            .verify_against_full_pass(m);
    }

    /// The cache is bit-compatible with a fresh lowering: a moved bound
    /// rebuilds, a refresh under the same bounds reuses the lowering.
    #[test]
    fn rebuild_then_patch_matches_fresh_lowering() {
        let mut m = toy();
        let mut slot = LpCacheSlot::new();
        {
            let cached = slot.refresh(&m);
            let fresh = m.lower_reduced();
            assert_eq!(cached.lp.ncols(), fresh.lp.ncols());
            assert_eq!(cached.lp.nrows(), fresh.lp.nrows());
            assert_eq!(cached.geom.map.fixed_obj_min, fresh.geom.map.fixed_obj_min);
        }
        assert_eq!(slot.stats().rebuilds, 1);

        // Bound-only change with the same fixed set: c moves 1 -> 0.
        let c = VarId::from_raw(2);
        m.set_bounds(c, 0.0, 0.0);
        {
            let cached = slot.refresh(&m);
            let fresh = m.lower_reduced();
            assert_eq!(cached.geom.map.fixed_obj_min, fresh.geom.map.fixed_obj_min);
            let (clb, cub) = cached.lp.row_bounds();
            let (flb, fub) = fresh.lp.row_bounds();
            assert_eq!(clb, flb);
            assert_eq!(cub, fub);
        }
        let s = slot.stats();
        assert_eq!((s.rebuilds, s.patches), (2, 0), "a moved bound rebuilds");
        // Nothing moved: the lowering is reused as it stands.
        slot.refresh(&m);
        let s = slot.stats();
        assert_eq!((s.rebuilds, s.patches, s.refix_patches), (2, 1, 0));
        assert_matches_fresh(&slot, &m);
    }

    #[test]
    fn appended_cut_rows_join_the_cached_lp() {
        let mut m = toy();
        let mut slot = LpCacheSlot::new();
        let before = slot.refresh(&m).lp.nrows();
        let a = VarId::from_raw(0);
        let b = VarId::from_raw(1);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0); // a cut
        {
            let cached = slot.refresh(&m);
            assert_eq!(cached.lp.nrows(), before + 1);
            let fresh = m.lower_reduced();
            assert_eq!(cached.lp.nrows(), fresh.lp.nrows());
            assert_eq!(
                cached.lp.matrix().get(before, 0),
                fresh.lp.matrix().get(before, 0)
            );
        }
        assert_eq!(slot.stats().patches, 1);
        assert_eq!(slot.stats().appended_rows, 1);
    }

    #[test]
    fn layout_change_invalidates() {
        let mut m = toy();
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        // Freeing the folded variable moves a bound -> rebuild.
        let c = VarId::from_raw(2);
        m.set_bounds(c, 0.0, 1.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 2);
        // Adding a variable bumps the structure version -> rebuild.
        m.add_binary(1.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 3);
    }

    /// Regression test for the `fixed_signature` collision bug: two
    /// distinct fixed sets must never alias to the same layout. A moved
    /// bound rebuilds, so the layout folds the current fixed set (never
    /// reuses the wrong column numbering), bit-identical to the fresh
    /// lowering.
    #[test]
    fn distinct_fixed_sets_never_alias() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..6).map(|i| m.add_binary(1.0 + i as f64)).collect();
        m.add_le(vars.iter().map(|&v| (v, 1.0)).collect(), 3.0);
        m.fix_var(vars[0], 1.0);
        m.fix_var(vars[1], 0.0);
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m); // folds {0, 1}
        assert_matches_fresh(&slot, &m);

        // Distinct set of the same size: {1, 2} — frees folded var 0.
        m.set_bounds(vars[0], 0.0, 1.0);
        m.fix_var(vars[2], 1.0);
        slot.refresh(&m);
        assert_eq!(
            slot.stats().rebuilds,
            2,
            "freeing a folded column must rebuild, whatever the set hashes to"
        );
        assert_matches_fresh(&slot, &m);
        // The rebuilt layout folds the *current* fixed set {1, 2}: var 0
        // has an LP column again, vars 1 and 2 do not.
        let lowered = slot.lowered().unwrap();
        assert!(lowered.geom.map.col_of_var[0].is_some());
        assert!(lowered.geom.map.col_of_var[1].is_none());
        assert!(lowered.geom.map.col_of_var[2].is_none());
    }

    /// Pins the invalidation contract the `num_cons() >= ncons_lowered`
    /// reuse guard relies on: constraints are append-only and every
    /// in-place term edit bumps `structure_version` (so the cache rebuilds
    /// rather than reusing stale rows).
    #[test]
    fn in_place_term_edits_invalidate() {
        let mut m = toy();
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        let a = VarId::from_raw(0);
        m.add_terms(crate::model::ConsId(0), [(a, 0.5)]);
        slot.refresh(&m);
        assert_eq!(
            slot.stats().rebuilds,
            2,
            "adding terms to an existing row must invalidate the layout"
        );
        assert_eq!(slot.stats().patches, 0);
    }

    /// A same-length constraint swap that forgets the `structure_version`
    /// bump is undetectable by the cheap release-mode checks (same count,
    /// same version, same bounds) — the debug verification pass must
    /// catch it instead of silently reusing stale rows.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a structure_version bump")]
    fn same_length_row_swap_is_detected_in_debug() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(3.0);
        let b = m.add_binary(2.0);
        m.add_le(vec![(a, 1.0)], 1.0);
        m.add_le(vec![(b, 1.0)], 1.0);
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        m.swap_constraints_unversioned_for_test(0, 1);
        slot.refresh(&m);
    }

    /// With no bound moved since the last refresh the lowering is reused:
    /// it still matches a fresh one and rows appended meanwhile join it. A
    /// column fixed after the lowering moves a bound, so the next refresh
    /// rebuilds and folds it.
    #[test]
    fn unmoved_bounds_skip_the_patch() {
        let mut m = toy();
        let a = VarId::from_raw(0);
        let b = VarId::from_raw(1);
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 2.0);
        slot.refresh(&m);
        slot.refresh(&m);
        let s = slot.stats();
        assert_eq!((s.rebuilds, s.patches, s.appended_rows), (1, 2, 1));
        assert_matches_fresh(&slot, &m);
        m.fix_var(a, 1.0);
        slot.refresh(&m);
        let s = slot.stats();
        assert_eq!((s.rebuilds, s.patches, s.refix_patches), (2, 2, 0));
        assert!(slot
            .lowered()
            .is_some_and(|l| l.geom.map.col_of_var[0].is_none()));
        assert_matches_fresh(&slot, &m);
    }

    /// The remembered start verdict covers the rows it was taken against;
    /// appended rows are checked on top, anything else starts over.
    #[test]
    fn start_check_follows_appended_rows_and_moved_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 2.0);
        let mut slot = LpCacheSlot::new();
        let mut start_is_feasible = |m: &Model, x: &[f64]| {
            let parts = slot.refresh_solver(m);
            let objective = parts
                .side
                .start_objective(m, &parts.lowered.geom.map, x, 1e-6);
            assert_eq!(objective.is_some(), m.is_feasible(x, 1e-6));
            assert!(objective.is_none_or(|o| o == m.objective_value(x)));
            objective.is_some()
        };
        let x = [1.0, 1.0];
        assert!(start_is_feasible(&m, &x));
        assert!(start_is_feasible(&m, &x));
        // An appended row the point satisfies, then one it violates.
        m.add_ge(vec![(a, 1.0)], 1.0);
        assert!(start_is_feasible(&m, &x));
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        assert!(!start_is_feasible(&m, &x));
        assert!(!start_is_feasible(&m, &x));
        // Another point is another question.
        assert!(start_is_feasible(&m, &[1.0, 0.0]));
        // So is the same point once a bound moved.
        m.set_bounds(b, 1.0, 1.0);
        assert!(!start_is_feasible(&m, &[1.0, 0.0]));
        m.set_bounds(b, 0.0, 0.0);
        assert!(start_is_feasible(&m, &[1.0, 0.0]));
    }

    use crate::model::ConsId;
    use crate::solver::{solve_preemptible, MilpOptions, MilpWarmStart};

    /// Judging a start on the slot, then solving from it, counts what the
    /// solve alone counts — one rebuild or reuse per tree — and solves the
    /// same tree: the judge's refresh is the tree's. Rounds: a first
    /// lowering, a cut row appended, a moved bound, nothing moved, and a
    /// judged start the model rejects (the tree then starts elsewhere).
    #[test]
    fn a_judged_start_counts_one_refresh_for_its_tree() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..5).map(|i| m.add_binary(1.0 + i as f64)).collect();
        m.add_le(
            vars.iter().map(|&v| (v, 1.0 + v.index() as f64)).collect(),
            6.0,
        );
        m.add_le(vec![(vars[0], 1.0), (vars[1], 1.0)], 1.0);
        let (mut judged, mut alone) = (LpCacheSlot::new(), LpCacheSlot::new());
        let opts = MilpOptions::default();
        let feasible = vec![1.0, 0.0, 0.0, 0.0, 1.0];
        for round in 0..5 {
            match round {
                1 => {
                    m.add_le(vec![(vars[3], 1.0), (vars[4], 1.0)], 1.0);
                }
                2 => m.fix_var(vars[2], 0.0),
                _ => {}
            }
            let start = if round == 4 {
                vec![1.0; 5]
            } else {
                feasible.clone()
            };
            let admits = judged.start_is_feasible(&m, &start, 1e-6);
            assert_eq!(admits, m.is_feasible(&start, 1e-6), "round {round}");
            let seed = if admits { &start } else { &feasible };
            let solve = |slot: &mut LpCacheSlot| {
                let warm = MilpWarmStart {
                    start: Some(seed),
                    root_basis: None,
                };
                let r = solve_preemptible(&m, &opts, warm, None, Some(slot), usize::MAX)
                    .done()
                    .expect("an unbounded quantum never suspends");
                (r.objective.to_bits(), r.nodes, r.lp_iterations, r.x)
            };
            assert_eq!(solve(&mut judged), solve(&mut alone), "round {round}");
            assert_eq!(judged.stats(), alone.stats(), "round {round}");
        }
        let s = alone.stats();
        assert_eq!((s.rebuilds, s.patches, s.appended_rows), (2, 3, 1));
    }
    use crate::test_models::{append_random_row, random_model};

    /// The bounds the lifecycle frees a variable of [`random_model`] to.
    const WIDE: (f64, f64) = (0.0, 4.0);

    /// One step in the life of a planner's skeleton, at random: it grows
    /// (variables, terms on old rows, rows), is re-fixed, has a few kept
    /// columns pinned or row bounds moved, or gets a folded column freed.
    fn lifecycle_step(m: &mut Model, rng: &mut StdRng) -> &'static str {
        let var = |m: &Model, rng: &mut StdRng| VarId::from_raw(rng.gen_index(m.num_vars()));
        match rng.gen_index(8) {
            0 => {
                for _ in 0..(1 + rng.gen_index(3)) {
                    let v = match rng.gen_index(3) {
                        0 => m.add_continuous(0.0, 2.5, 1.0),
                        1 => m.add_var(VarType::Integer, 0.0, 3.0, -1.0),
                        _ => m.add_binary(2.0),
                    };
                    // New columns join old rows, as a new plan space joins
                    // the capacity rows.
                    let old = ConsId(rng.gen_index(m.num_cons()));
                    m.add_terms(old, [(v, 1.0 + rng.gen_index(2) as f64)]);
                    if rng.gen_bool() {
                        m.fix_var(v, 0.0);
                    }
                }
                append_random_row(m, rng);
                "new variables"
            }
            1 => {
                // An old variable joins an old row — twice, or with a zero
                // coefficient, now and then.
                let (v, old) = (var(m, rng), ConsId(rng.gen_index(m.num_cons())));
                let a = rng.gen_index(3) as f64 - 1.0;
                m.add_terms(old, [(v, a)]);
                "terms on an old row"
            }
            2 => {
                for _ in 0..(1 + rng.gen_index(3)) {
                    append_random_row(m, rng);
                }
                "new rows"
            }
            3 => {
                for j in 0..m.num_vars() {
                    let v = VarId::from_raw(j);
                    let (lo, hi) = WIDE;
                    match rng.gen_index(4) {
                        0 => m.set_bounds(v, lo, lo),
                        1 => m.set_bounds(v, 1.0, 1.0),
                        2 => m.set_bounds(v, lo, hi),
                        _ => {}
                    }
                }
                "re-fix"
            }
            4 => {
                // Kept columns pinned after the last lowering: the next
                // refresh rebuilds and folds them.
                for _ in 0..(1 + rng.gen_index(4)) {
                    let v = var(m, rng);
                    let (lb, _) = m.var_bounds(v);
                    m.fix_var(v, lb);
                }
                "kept columns pinned"
            }
            5 => {
                let folded: Vec<usize> = (0..m.num_vars())
                    .filter(|&j| m.vars[j].is_fixed())
                    .collect();
                if !folded.is_empty() {
                    let v = VarId::from_raw(folded[rng.gen_index(folded.len())]);
                    m.set_bounds(v, WIDE.0, WIDE.1);
                }
                "a folded column freed"
            }
            6 => {
                let c = rng.gen_index(m.num_cons());
                let (_, lb, ub) = m.constraint(c);
                let by = rng.gen_range_i64(-2, 3) as f64;
                let (lb, ub) = if lb == ub {
                    (lb + by, ub + by)
                } else if ub.is_finite() {
                    (lb, ub + by)
                } else {
                    (lb + by, ub)
                };
                m.set_row_bounds(ConsId(c), lb, ub);
                "row bounds"
            }
            _ => {
                // A fixed value that rounding changes, or none at all.
                let v = var(m, rng);
                if m.var_type(v) == VarType::Integer && rng.gen_bool() {
                    m.set_bounds(v, 0.5, 0.5);
                } else {
                    m.set_bounds(v, 0.25, 0.25);
                }
                "an odd fixed value"
            }
        }
    }

    /// Whatever happens to the model between two refreshes, the slot's
    /// lowering and side tables are the full pass's, field by field and bit
    /// by bit — the rebuilds, which read the rows of the variables that
    /// moved and carry the rest over, included; a rebuild folds what
    /// [`Model::lower_reduced`] folds; and rows added under unmoved bounds
    /// join the cached lowering.
    #[test]
    fn adjacency_driven_refreshes_match_the_full_lowering() {
        let (mut carried_rebuilds, mut patches, mut rows_skipped) = (0, 0, 0usize);
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xadaacce);
            let mut m = random_model(seed);
            let mut slot = LpCacheSlot::new();
            slot.refresh(&m);
            for round in 0..12 {
                let what = lifecycle_step(&mut m, &mut rng);
                let (before, read_before) = (slot.stats(), slot.rows_read());
                slot.refresh(&m);
                let cache = slot.inner.as_mut().expect("slot populated");
                cache.verify_against_full_pass(&m);
                let read_after = cache.side.rows_read;
                // Keeps the per-tolerance verdicts on the constant rows in
                // play, which every later refresh then has to maintain.
                let at_lower_bounds: Vec<f64> = m.vars.iter().map(|v| v.lb).collect();
                for tol in [1e-6, 1e-5] {
                    let map = &cache.lowered.geom.map;
                    assert_eq!(
                        cache.side.is_feasible(&m, map, &at_lower_bounds, tol),
                        m.is_feasible(&at_lower_bounds, tol)
                    );
                }
                let cache = slot.inner.as_ref().expect("slot populated");
                let map = &cache.lowered.geom.map;
                if slot.stats().rebuilds > before.rebuilds {
                    assert_ne!(
                        what, "new rows",
                        "seed {seed}, round {round}: appended rows rebuilt the lowering"
                    );
                    carried_rebuilds += 1;
                    rows_skipped += (m.num_cons() + read_before).saturating_sub(read_after);
                    let fresh = m.lower_reduced();
                    assert_eq!(
                        map.col_of_var, fresh.geom.map.col_of_var,
                        "seed {seed}, round {round} ({what}): what the rebuild folds"
                    );
                } else if what == "new rows" {
                    patches += 1;
                }
                // The verdict the lowering hands the search, spelt out.
                let violated = (0..m.num_cons())
                    .filter(|ci| map.cons_of_row.binary_search(ci).is_err())
                    .any(|ci| {
                        let (terms, lb, ub) = m.constraint(ci);
                        let value = terms
                            .iter()
                            .fold(0.0, |s, &(v, a)| s + a * m.var_bounds(v).0);
                        const_row_violated(value, lb, ub)
                    });
                let off_integer = (0..m.num_vars()).any(|j| {
                    let v = &m.vars[j];
                    map.col_of_var[j].is_none()
                        && v.ty == VarType::Integer
                        && (v.lb - v.lb.round()).abs() > 1e-9
                });
                assert_eq!(map.infeasible_fixed_row, violated || off_integer);
            }
        }
        assert!(carried_rebuilds >= 200, "only {carried_rebuilds} rebuilds");
        assert!(patches >= 75, "only {patches} reuses on appended rows");
        assert!(rows_skipped >= 200, "rebuilds skipped {rows_skipped} rows");
    }

    /// A constant row turns violated under a re-fix, is repaired, and stops
    /// being constant when its column is freed — each step a rebuild, with
    /// nothing else about the row moving — and a refresh with nothing moved
    /// keeps the verdict.
    #[test]
    fn constant_rows_follow_their_variables() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        let c = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0); // constant once a, b are pinned
        m.add_le(vec![(b, 1.0), (c, 1.0)], 2.0); // kept: c stays free
        m.fix_var(a, 1.0);
        m.fix_var(b, 0.0);
        let mut slot = LpCacheSlot::new();
        let infeasible = |slot: &mut LpCacheSlot, m: &Model| {
            let l = slot.refresh(m);
            (l.geom.map.infeasible_fixed_row, l.lp.nrows())
        };
        assert_eq!(infeasible(&mut slot, &m), (false, 1));
        // Re-fix b: 1 + 1 > 1 in the constant row.
        m.set_bounds(b, 1.0, 1.0);
        assert_eq!(infeasible(&mut slot, &m), (true, 1));
        // The row's own bound moves instead of a variable's.
        m.set_row_bounds(ConsId(0), f64::NEG_INFINITY, 2.0);
        assert_eq!(infeasible(&mut slot, &m), (false, 1));
        m.set_row_bounds(ConsId(0), f64::NEG_INFINITY, 1.0);
        assert_eq!(infeasible(&mut slot, &m), (true, 1));
        // Free a: the row is an LP row now, nothing is violated.
        m.set_bounds(a, 0.0, 1.0);
        assert_eq!(infeasible(&mut slot, &m), (false, 2));
        // Pin it again at the violating value: constant and violated again.
        m.fix_var(a, 1.0);
        assert_eq!(infeasible(&mut slot, &m), (true, 1));
        assert_eq!(infeasible(&mut slot, &m), (true, 1));
        let s = slot.stats();
        assert_eq!(
            (s.rebuilds, s.patches),
            (6, 1),
            "every moved bound rebuilds"
        );
        assert_matches_fresh(&slot, &m);
    }

    /// Point validation through the slot's tables is [`Model::is_feasible`]:
    /// on feasible points, on points violated in a kept row or column, in a
    /// constant row, off a folded variable's fixed value, fractional on a
    /// folded integer, and not finite — at both tolerances the solver uses.
    #[test]
    fn restricted_validation_is_model_feasibility() {
        let (mut pairs, mut restricted, mut feasible, mut const_violated) = (0, 0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfea51b1e);
            let mut m = random_model(seed);
            let mut slot = LpCacheSlot::new();
            for _ in 0..2 {
                lifecycle_step(&mut m, &mut rng);
                let parts = slot.refresh_solver(&m);
                let (geom, side) = (&parts.lowered.geom, parts.side);
                let map = &geom.map;
                // The model's own favourite point, then variations of it.
                let base: Vec<f64> = (0..m.num_vars())
                    .map(|j| {
                        let v = &m.vars[j];
                        if map.col_of_var[j].is_none() {
                            v.lb
                        } else {
                            // `random_model`'s hidden point.
                            v.ub.floor().max(v.lb)
                        }
                    })
                    .collect();
                for variation in 0..7 {
                    let mut x = base.clone();
                    let j = rng.gen_index(x.len());
                    match variation {
                        0 => {}
                        // A kept column (or a folded one, as chance has it)
                        // leaves its bounds, its integrality, the reals.
                        1 => x[j] += 1.0,
                        2 => x[j] += 0.5,
                        3 => x[j] += 1e-6 * rng.gen_range_f64(0.5, 15.0),
                        4 => x[j] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_index(3)],
                        // Every kept column somewhere within its bounds.
                        5 => {
                            for &k in &map.var_of_col {
                                let v = &m.vars[k];
                                x[k] = (v.lb + rng.gen_index(3) as f64).min(v.ub);
                            }
                        }
                        _ => x.pop().map_or((), |_| ()),
                    }
                    for tol in [1e-6, 1e-5] {
                        let want = m.is_feasible(&x, tol);
                        assert_eq!(
                            side.is_feasible(&m, map, &x, tol),
                            want,
                            "seed {seed}, variation {variation}, tol {tol}"
                        );
                        pairs += 1;
                        feasible += usize::from(want);
                    }
                    let on_fixed = x.len() == m.num_vars()
                        && (0..x.len())
                            .all(|k| map.col_of_var[k].is_some() || x[k] == m.vars[k].lb);
                    restricted += usize::from(on_fixed);
                    const_violated += usize::from(on_fixed && map.infeasible_fixed_row);
                }
                // And the search's own way in: a compressed-LP point.
                let x_lp: Vec<f64> = map
                    .var_of_col
                    .iter()
                    .map(|&k| m.vars[k].lb + rng.gen_index(2) as f64 * 0.5)
                    .collect();
                let mut x = Vec::new();
                let got = side.candidate_is_feasible(&m, geom, &x_lp, &mut x, 1e-5);
                assert_eq!(got, m.is_feasible(&x, 1e-5), "seed {seed}: candidate");
                pairs += 1;
            }
        }
        assert!(
            pairs >= 2000,
            "only {pairs} (model, point, tolerance) triples"
        );
        assert!(
            restricted >= 1500,
            "only {restricted} points took the shortcut"
        );
        assert!(feasible >= 300, "only {feasible} feasible verdicts");
        assert!(
            const_violated >= 100,
            "only {const_violated} with a violated constant row"
        );
    }

    /// What one admission of [`admit_queries`] read.
    struct Admission {
        /// Skeleton columns at the admission.
        columns: usize,
        /// Constraint rows read (rebuild, presolve, validation).
        rows: usize,
        /// LP rows plus the rows of the variables that moved.
        row_budget: usize,
        /// Terms read by presolve and validation.
        terms: usize,
        /// LP nonzeros, plus the kept rows' folded terms with a nonzero
        /// value, plus four per LP row: one pass over the live terms.
        term_budget: usize,
        /// Model terms in the kept rows.
        kept_terms: usize,
    }

    /// A skeleton in the planner's mould — capacity rows that carry a column
    /// of every query, a block of private columns and rows per query — takes
    /// 80 admissions, each freeing its own block and pinning the previous one
    /// where the solver left it. Before each, `rejected` queries join the
    /// capacity rows and are fixed at zero at once, as the planner's
    /// reduction leaves a rejected plan space.
    fn admit_queries(rejected: usize) -> (LpCacheSlot, Model, Vec<Admission>) {
        const HOSTS: usize = 4;
        let mut m = Model::new(Sense::Maximize);
        let capacity: Vec<ConsId> = (0..HOSTS).map(|_| m.add_le(Vec::new(), 1e6)).collect();
        let mut slot = LpCacheSlot::new();
        let mut x: Vec<f64> = Vec::new();
        let mut previous: Vec<VarId> = Vec::new();
        let mut rounds = Vec::new();
        for q in 0..80usize {
            // The previous block stays where the solver put it.
            for &v in &previous {
                m.fix_var(v, x[v.index()]);
            }
            for k in 0..rejected {
                for (h, &row) in capacity.iter().enumerate() {
                    let v = if (k + h) % 2 == 0 {
                        m.add_binary(-1.0)
                    } else {
                        m.add_continuous(0.0, 1.0, -1.0)
                    };
                    m.add_terms(row, [(v, 0.5 + ((q + k + h) % 4) as f64)]);
                    m.fix_var(v, 0.0);
                }
            }
            // This query: admitted (d) iff placed on exactly one host (p_h),
            // with a private row per host and a share of each capacity row.
            let d = m.add_binary(100.0);
            let p: Vec<VarId> = (0..HOSTS)
                .map(|h| m.add_binary(-1.0 - ((q + h) % HOSTS) as f64))
                .collect();
            let mut placed: Vec<(VarId, f64)> = p.iter().map(|&v| (v, 1.0)).collect();
            placed.push((d, -1.0));
            m.add_eq(placed, 0.0);
            for (h, &v) in p.iter().enumerate() {
                m.add_le(vec![(v, 1.0), (d, -1.0)], 0.0);
                m.add_terms(capacity[h], [(v, 1.0 + (q % 3) as f64)]);
            }
            let block: Vec<VarId> = std::iter::once(d).chain(p).collect();
            x.resize(m.num_vars(), 0.0);

            let (rows_before, terms_before) = (slot.rows_read(), slot.terms_read());
            let warm = MilpWarmStart {
                start: Some(&x),
                root_basis: None,
            };
            let opts = MilpOptions::default();
            let result = solve_preemptible(&m, &opts, warm, None, Some(&mut slot), usize::MAX)
                .done()
                .expect("an unbounded quantum never suspends");
            x = result.x.expect("the start is feasible");
            assert!(x[d.index()] > 0.5, "query {q} admitted");

            let mut touched: Vec<u32> = previous
                .iter()
                .chain(&block)
                .flat_map(|v| m.rows_of_var[v.index()].iter().copied())
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let lowered = slot.lowered().expect("slot populated");
            let (lp, map) = (&lowered.lp, &lowered.geom.map);
            let valued_folded: usize = map
                .cons_of_row
                .iter()
                .flat_map(|&ci| &m.cons[ci].terms)
                .filter(|&&(v, _)| {
                    map.col_of_var[v.index()].is_none() && m.vars[v.index()].lb != 0.0
                })
                .count();
            rounds.push(Admission {
                columns: m.num_vars(),
                rows: slot.rows_read() - rows_before,
                row_budget: lp.nrows() + touched.len(),
                terms: slot.terms_read() - terms_before,
                term_budget: lp.matrix().nnz() + valued_folded + 4 * lp.nrows(),
                kept_terms: map
                    .cons_of_row
                    .iter()
                    .map(|&ci| m.cons[ci].terms.len())
                    .sum(),
            });
            previous = block;
        }
        assert_eq!(
            slot.stats().rebuilds,
            80,
            "every admission is structural growth"
        );
        (slot, m, rounds)
    }

    /// The largest of `read` over rounds `w`.
    fn most(w: &[Admission], read: impl Fn(&Admission) -> usize) -> usize {
        w.iter().map(read).max().unwrap_or(0)
    }

    /// What a solver construction reads follows the LP and what moved, not
    /// the skeleton: the constraint rows read per admission (rebuild,
    /// presolve, validation) stay within a fixed multiple of the LP's rows
    /// plus the rows of the variables that moved, and do not grow with the
    /// skeleton.
    #[test]
    fn rows_read_follow_the_lp_not_the_skeleton() {
        let (_, _, rounds) = admit_queries(0);
        for r in &rounds[1..] {
            assert!(
                r.rows <= 12 * r.row_budget,
                "{} rows read against {} LP + moved rows at {} columns",
                r.rows,
                r.row_budget,
                r.columns
            );
        }
        let (early, late) = (&rounds[2..12], &rounds[rounds.len() - 10..]);
        assert!(
            late[0].columns >= 4 * early[0].columns,
            "the skeleton was meant to grow: {} -> {} columns",
            early[0].columns,
            late[0].columns
        );
        let rows = |r: &Admission| r.rows;
        assert!(
            most(late, rows) <= most(early, rows) + most(early, rows) / 4,
            "rows read per admission grew with the skeleton: {} early, {} late",
            most(early, rows),
            most(late, rows)
        );
    }

    /// The terms presolve and validation read follow the live terms, not
    /// the skeleton. Rejected queries, fixed at zero, grow the capacity rows
    /// until nearly all of their terms are zero-fixed. Per admission, the
    /// terms read stay within four passes over the LP's nonzeros, the kept
    /// rows' nonzero-fixed terms and four terms per LP row — less than one
    /// pass over the kept rows' model terms, once the skeleton has grown —
    /// and they grow only with the nonzero-fixed terms (the admitted
    /// queries' placements), not with the zero-fixed ones.
    #[test]
    fn terms_read_follow_the_live_terms_not_the_skeleton() {
        let (_, _, rounds) = admit_queries(6);
        for r in &rounds[1..] {
            assert!(
                r.terms <= 4 * r.term_budget,
                "{} terms read against {} live terms at {} columns",
                r.terms,
                r.term_budget,
                r.columns
            );
        }
        let (early, late) = (&rounds[2], &rounds[rounds.len() - 1]);
        assert!(
            late.kept_terms >= 10 * late.term_budget,
            "the capacity rows were meant to grow: {} terms against {} live",
            late.kept_terms,
            late.term_budget
        );
        assert!(
            late.terms - early.terms <= 4 * (late.term_budget - early.term_budget),
            "terms read grew with the skeleton: {} -> {} while the kept rows grew {} -> {} terms",
            early.terms,
            late.terms,
            early.kept_terms,
            late.kept_terms
        );
    }
}
