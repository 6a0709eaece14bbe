//! Cached compressed LP lowering, reused across B&B constructions *and*
//! submissions.
//!
//! The compressed lowering re-scans every variable and term of the model —
//! acceptable once, but the SQPR planner constructs up to three [`crate::solver`]
//! searches per submission (cutting-plane rounds) over a persistent model
//! skeleton whose *structure* barely changes: between constructions only
//! bounds move (the §IV-A reduction re-fixing) and new rows are appended
//! (availability cuts). An [`LpCacheSlot`] keeps one lowered
//! [`sqpr_lp::Problem`] alive across those constructions and, instead of
//! rebuilding:
//!
//! - **patches column bounds** straight into the LP — including columns the
//!   current submission bound-fixes that the cached layout kept free (they
//!   simply solve with collapsed bounds);
//! - **recomputes row bounds** from each kept row's stored fixed-term list
//!   (the folded constants move when the deployment state changes);
//! - **appends rows** for model constraints added since the lowering (cut
//!   rounds) — appended rows keep every existing column/row index stable,
//!   so LP bases remain valid warm-start hints across rounds;
//! - re-derives `fixed_obj_min` / `infeasible_fixed_row` and rechecks the
//!   dropped constant rows.
//!
//! The bound-dependent steps are skipped outright when the model's
//! [`Model::bounds_stamp`] is the one they were last derived from (the cut
//! rounds of one submission: rows were appended, no bound moved). For the
//! same reason the slot remembers the last seed incumbent it validated, so
//! a construction handed the same point under the same bounds checks it
//! against the appended rows only.
//!
//! # Layout keying: fixed *classes*, not fixed *sets*
//!
//! The compression layout folds a **class** of bound-fixed columns out of
//! the LP; the folded values themselves are patch-time data, not layout.
//! The cache therefore stays reusable while:
//!
//! - the model's [`Model::structure_version`] matches (no new variables, no
//!   terms added to existing rows — i.e. no skeleton `extend` with real
//!   content), and
//! - **every folded column is still bound-fixed at *some* value**. The
//!   stored class is compared member-by-member — an exact set containment
//!   check, *not* a hash (an earlier revision compressed the fixed-index
//!   set to a 64-bit FNV-style signature, where a collision would silently
//!   reuse a wrong layout and corrupt the LP).
//!
//! A submission that re-fixes a *different superset* of the cached class
//! (the planner's deployment-state pins move every round) patches instead
//! of rebuilding: folded constants are re-applied at the current fixed
//! values, newly-fixed kept columns get collapsed bounds. Only freeing a
//! *folded* column — or real structural growth — forces a rebuild, so over
//! a run the folded class converges to the columns every submission pins.
//! The patched LP is bit-identical to lowering fresh under the same class
//! (`Model::lower_reduced_for_class`); the property tests assert that.
//!
//! # Lifted factor generation
//!
//! The slot also owns the [`LpWorkspace`] shared by every construction it
//! serves, and with it the workspace's detached basis-factor cache
//! ([`sqpr_lp::BasisState`]-adjacent `FactorState`). The matrix-generation
//! token scoping that cache is claimed *here*, not per B&B tree: the slot
//! knows exactly when the LP matrix survives a refresh untouched (pure
//! bound patch) versus when it changes (rebuild, appended cut rows), so the
//! token is renewed only then. Consecutive trees over an unchanged matrix —
//! cut rounds, and consecutive submissions that only re-fixed bounds —
//! re-attach each other's final factorisation at the root instead of
//! refactorising ([`sqpr_lp::LpWorkspace::resume_factor_generation`]).
//!
//! Staleness can cost a re-scan, never correctness: the checks run on
//! every `refresh`. The one mutation the version/class checks cannot see —
//! an in-place *swap* of same-length constraints without a
//! `structure_version` bump — is impossible through the [`Model`] API
//! (every term-editing call bumps the version; constraints are
//! append-only) and is additionally caught by a debug-build verification
//! pass that re-folds every cached row against the model.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::model::{
    const_row_violated, fold_constraint, shifted_bounds, AdjacencyCheck, LoweredLp, Model, Sense,
    VarType,
};
use crate::presolve::FirstSweep;
use sqpr_lp::{LpWorkspace, Triplet};

/// Matrix-generation tokens for basis-factorisation reuse. Cache slots
/// claim one per *matrix* (renewed on rebuild or row append); cacheless
/// B&B constructions claim one per tree. A single process-wide counter
/// keeps tokens unique across slots, so a workspace can never confuse two
/// matrices.
static FACTOR_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Claims a fresh, process-unique matrix-generation token.
pub(crate) fn next_factor_token() -> u64 {
    FACTOR_GENERATION.fetch_add(1, AtomicOrdering::Relaxed)
}

/// Counters describing how the cache behaved (exposed for ablation
/// reporting and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full lowerings (cold constructions or layout invalidations).
    pub rebuilds: usize,
    /// In-place reuses (bound patch, possibly plus appended rows).
    pub patches: usize,
    /// Patches whose bound-fixed set differed from the cached layout's
    /// folded class — the cross-submission hits that set-identity keying
    /// (the pre-class behaviour) would have paid a rebuild for.
    pub refix_patches: usize,
    /// Cut rows appended across all patches.
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

    /// Accumulates another counter set into this one. Exhaustively
    /// destructured so a newly added counter is a compile error here, not a
    /// silently dropped stat.
    pub fn add(&mut self, other: &CacheStats) {
        let CacheStats {
            rebuilds,
            patches,
            refix_patches,
            appended_rows,
        } = *other;
        self.rebuilds += rebuilds;
        self.patches += patches;
        self.refix_patches += refix_patches;
        self.appended_rows += appended_rows;
    }

    /// Fraction of constructions served by an in-place patch (0 when no
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
    /// LP scratch buffers (and the detached basis-factor cache) shared by
    /// every B&B construction served from this slot.
    ws: LpWorkspace,
    /// Matrix generation of the cached LP: renewed whenever the matrix
    /// changes (rebuild, appended rows), held across pure bound patches so
    /// consecutive constructions may re-attach each other's factors.
    factor_token: u64,
    /// The seed incumbent most recently validated through this slot.
    start_check: Option<StartCheck>,
}

/// Verdict of one seed-incumbent validation ([`Model::is_feasible`]), with
/// everything it depended on: the point, the tolerance, the model's
/// structure and bounds (by stamp) and how many rows existed.
#[derive(Debug)]
struct StartCheck {
    x: Vec<f64>,
    tol: f64,
    structure_version: u64,
    bounds_stamp: u64,
    ncons: usize,
    feasible: bool,
}

#[derive(Debug)]
struct LpCache {
    lowered: LoweredLp,
    /// Model identity the layout was derived from.
    structure_version: u64,
    nvars: usize,
    /// Model constraints lowered so far (kept + dropped); anything beyond
    /// is an appended row. Constraints are append-only by the [`Model`]
    /// API contract — any in-place term edit bumps `structure_version` —
    /// so indices below this watermark always mean the same row.
    ncons_lowered: usize,
    /// The folded class: model variable indices compressed out of the LP,
    /// ascending. Stored exactly (not hashed — see the module docs) and
    /// required to stay bound-fixed, at any value, for the layout to be
    /// reusable.
    folded: Vec<usize>,
    /// [`Model::bounds_stamp`] the bound-dependent parts of the lowering
    /// (column and row bounds, folded constants, constant-row verdict)
    /// were last derived from.
    bounds_stamp: u64,
    /// Kept columns that were bound-fixed at that stamp.
    kept_fixed: usize,
    /// Presolve's first sweep over this lowering's rows, for the next
    /// construction under the same bounds to resume from.
    first_sweep: Option<FirstSweep>,
}

/// What a solver construction borrows from the slot.
pub(crate) struct SolverParts<'a> {
    pub lowered: &'a LoweredLp,
    pub first_sweep: &'a mut Option<FirstSweep>,
    /// The slot's workspace.
    pub ws: &'a mut LpWorkspace,
    /// Matrix-generation token under which basis factors may be reused
    /// against `lowered.lp`.
    pub factor_token: u64,
}

impl LpCacheSlot {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops the cached lowering (the planner calls this alongside its own
    /// skeleton invalidation; a stale cache would also be caught by the
    /// validity checks, this just frees the memory eagerly). The workspace
    /// and its allocations survive; the factor cache dies with the next
    /// rebuild's token renewal.
    pub fn invalidate(&mut self) {
        self.inner = None;
        self.start_check = None;
    }

    /// [`Model::is_feasible`] for a seed incumbent, remembered per slot: the
    /// same point under the same structure, bounds and tolerance keeps its
    /// verdict on the rows it was checked against, so only rows appended
    /// since (cut rounds) are evaluated. Anything else is a full check.
    pub(crate) fn start_is_feasible(&mut self, model: &Model, x: &[f64], tol: f64) -> bool {
        let known = self.start_check.take().filter(|c| {
            c.structure_version == model.structure_version()
                && c.bounds_stamp == model.bounds_stamp
                && c.tol == tol
                && c.ncons <= model.num_cons()
                && c.x == x
        });
        let (feasible, buf) = match known {
            Some(c) => {
                let feasible = c.feasible && model.rows_feasible(x, tol, c.ncons);
                debug_assert_eq!(feasible, model.is_feasible(x, tol));
                (feasible, c.x)
            }
            None => (model.is_feasible(x, tol), x.to_vec()),
        };
        self.start_check = Some(StartCheck {
            x: buf,
            tol,
            structure_version: model.structure_version(),
            bounds_stamp: model.bounds_stamp,
            ncons: model.num_cons(),
            feasible,
        });
        feasible
    }

    /// The cached lowering, if one is populated.
    #[cfg(test)]
    pub(crate) fn lowered(&self) -> Option<&LoweredLp> {
        self.inner.as_ref().map(|c| &c.lowered)
    }

    /// Makes the cached lowering current for `model` and returns it:
    /// patches/appends in place when the layout is unchanged, rebuilds
    /// otherwise. (Solver constructions go through
    /// [`Self::refresh_solver`], which also hands out the workspace.)
    #[cfg(test)]
    pub(crate) fn refresh(&mut self, model: &Model) -> &LoweredLp {
        let cache = Self::refresh_fields(
            &mut self.inner,
            &mut self.stats,
            &mut self.factor_token,
            model,
        );
        &cache.lowered
    }

    /// [`Self::refresh`] for a solver construction: additionally hands out
    /// the slot's workspace, the matrix-generation token, and the
    /// lowering's presolve memo.
    pub(crate) fn refresh_solver(&mut self, model: &Model) -> SolverParts<'_> {
        let cache = Self::refresh_fields(
            &mut self.inner,
            &mut self.stats,
            &mut self.factor_token,
            model,
        );
        SolverParts {
            lowered: &cache.lowered,
            first_sweep: &mut cache.first_sweep,
            ws: &mut self.ws,
            factor_token: self.factor_token,
        }
    }

    /// Field-split worker behind [`Self::refresh`]/[`Self::refresh_solver`]:
    /// takes the slot's fields separately so the returned cache borrows only
    /// `inner`, leaving the workspace field free for the solver tuple — and
    /// so a populated slot is guaranteed structurally (`Option::insert`
    /// returns the reference) rather than re-asserted with `expect`.
    fn refresh_fields<'a>(
        inner: &'a mut Option<LpCache>,
        stats: &mut CacheStats,
        factor_token: &mut u64,
        model: &Model,
    ) -> &'a mut LpCache {
        let reusable = inner.as_ref().is_some_and(|c| {
            c.structure_version == model.structure_version()
                && c.nvars == model.num_vars()
                && model.num_cons() >= c.ncons_lowered
                && c.folded
                    .iter()
                    .all(|&j| model.vars[j].lb == model.vars[j].ub)
        });
        let cache = match if reusable { inner.take() } else { None } {
            Some(mut cache) => {
                #[cfg(debug_assertions)]
                cache.verify_rows_unchanged(model);
                if cache.bounds_stamp == model.bounds_stamp {
                    // No bound moved since the lowering's bound-dependent
                    // parts were derived: patching would rewrite them all
                    // with the values they hold.
                    #[cfg(debug_assertions)]
                    cache.verify_patch_is_noop(model);
                } else {
                    cache.kept_fixed = LpCache::patch(&mut cache.lowered, model);
                    cache.bounds_stamp = model.bounds_stamp;
                }
                let appended = cache.append_new_rows(model);
                stats.appended_rows += appended;
                stats.patches += 1;
                if cache.kept_fixed > 0 {
                    stats.refix_patches += 1;
                }
                if appended > 0 {
                    // Appended rows change the matrix: factors built against
                    // the previous shape must not re-attach.
                    *factor_token = next_factor_token();
                }
                cache
            }
            None => {
                let lowered = model.lower_reduced();
                let map = &lowered.geom.map;
                let folded = map
                    .col_of_var
                    .iter()
                    .enumerate()
                    .filter_map(|(j, c)| c.is_none().then_some(j))
                    .collect();
                let kept_fixed = map
                    .var_of_col
                    .iter()
                    .filter(|&&j| model.vars[j].lb == model.vars[j].ub)
                    .count();
                stats.rebuilds += 1;
                *factor_token = next_factor_token();
                LpCache {
                    lowered,
                    structure_version: model.structure_version(),
                    nvars: model.num_vars(),
                    ncons_lowered: model.num_cons(),
                    folded,
                    bounds_stamp: model.bounds_stamp,
                    kept_fixed,
                    first_sweep: None,
                }
            }
        };
        inner.insert(cache)
    }
}

impl LpCache {
    /// Re-applies everything bound-dependent: column bounds (kept columns
    /// the model currently fixes simply collapse), row bounds of kept rows
    /// (fixed-term shifts recomputed at the *current* fixed values), the
    /// folded objective constant, and the constant-row feasibility verdict.
    /// Returns how many kept columns are currently bound-fixed (i.e. fixed
    /// outside the folded class).
    fn patch(l: &mut LoweredLp, model: &Model) -> usize {
        let flip = if model.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        let map = &mut l.geom.map;
        let mut fixed_obj_min = 0.0;
        let mut infeasible = false;
        let mut kept_fixed = 0;
        for (j, v) in model.vars.iter().enumerate() {
            match map.col_of_var[j] {
                Some(col) => {
                    l.lp.set_col_bounds(col, v.lb, v.ub);
                    if v.lb == v.ub {
                        kept_fixed += 1;
                    }
                }
                None => {
                    if v.ty == VarType::Integer && (v.lb - v.lb.round()).abs() > 1e-9 {
                        infeasible = true;
                    }
                    fixed_obj_min += flip * v.obj * v.lb;
                }
            }
        }
        for row in 0..map.cons_of_row.len() {
            let ci = map.cons_of_row[row];
            let (_, clb, cub) = model.constraint(ci);
            let shift: f64 = l.row_fixed_terms[row]
                .iter()
                .map(|&(v, a)| a * model.vars[v].lb)
                .sum();
            let (lb, ub) = shifted_bounds(clb, cub, shift);
            l.lp.set_row_bounds(row, lb, ub);
        }
        for &ci in &l.const_rows {
            let (terms, clb, cub) = model.constraint(ci);
            let shift: f64 = terms.iter().map(|&(v, a)| a * model.vars[v.0].lb).sum();
            if const_row_violated(shift, clb, cub) {
                infeasible = true;
            }
        }
        map.fixed_obj_min = fixed_obj_min;
        map.infeasible_fixed_row = infeasible;
        kept_fixed
    }

    /// Debug-build check of the patch skip: with an unchanged
    /// [`Model::bounds_stamp`], patching a copy must reproduce the cached
    /// lowering's bounds and verdicts exactly.
    #[cfg(debug_assertions)]
    fn verify_patch_is_noop(&self, model: &Model) {
        let was = &self.lowered;
        let mut now = was.clone();
        let kept_fixed = Self::patch(&mut now, model);
        assert!(
            kept_fixed == self.kept_fixed
                && was.lp.col_bounds() == now.lp.col_bounds()
                && was.lp.row_bounds() == now.lp.row_bounds()
                && was.geom.map.fixed_obj_min.to_bits() == now.geom.map.fixed_obj_min.to_bits()
                && was.geom.map.infeasible_fixed_row == now.geom.map.infeasible_fixed_row,
            "a model bound moved under the cache without renewing bounds_stamp"
        );
    }

    /// Lowers and appends every model constraint added since the cached
    /// lowering (cut rows); returns how many LP rows were appended.
    fn append_new_rows(&mut self, model: &Model) -> usize {
        if self.ncons_lowered == model.num_cons() {
            return 0;
        }
        let l = &mut self.lowered;
        let map = &mut l.geom.map;
        let mut bounds: Vec<(f64, f64)> = Vec::new();
        let mut entries: Vec<Triplet> = Vec::new();
        let mut next_row = l.lp.nrows();
        let mut adjacency = AdjacencyCheck::new(l.lp.ncols());
        for ci in self.ncons_lowered..model.num_cons() {
            let (terms, clb, cub) = model.constraint(ci);
            let fold = fold_constraint(&model.vars, &map.col_of_var, terms);
            if fold.kept.is_empty() {
                if const_row_violated(fold.shift, clb, cub) {
                    map.infeasible_fixed_row = true;
                }
                l.const_rows.push(ci);
                continue;
            }
            map.adjacency_exact &= adjacency.row_is_exact(next_row, &fold.kept);
            for (col, value) in fold.kept {
                entries.push(Triplet {
                    row: next_row,
                    col,
                    value,
                });
            }
            bounds.push(shifted_bounds(clb, cub, fold.shift));
            map.cons_of_row.push(ci);
            l.row_fixed_terms.push(fold.folded);
            next_row += 1;
        }
        let appended = bounds.len();
        if appended > 0 {
            l.lp.append_rows(&bounds, &entries);
        }
        self.ncons_lowered = model.num_cons();
        appended
    }

    /// Debug-build detection of the one staleness the cheap checks cannot
    /// see: an in-place mutation of already-lowered constraints that
    /// forgot to bump `structure_version` (e.g. a same-length constraint
    /// swap). Re-folds every cached row against the model and compares
    /// term-by-term; the folded lists and kept coefficients are
    /// bound-independent, so legitimate bound patches pass untouched.
    #[cfg(debug_assertions)]
    fn verify_rows_unchanged(&self, model: &Model) {
        let l = &self.lowered;
        let map = &l.geom.map;
        for (row, &ci) in map.cons_of_row.iter().enumerate() {
            let (terms, _, _) = model.constraint(ci);
            let fold = fold_constraint(&model.vars, &map.col_of_var, terms);
            assert_eq!(
                fold.folded, l.row_fixed_terms[row],
                "cached row {row} (constraint {ci}) changed under the cache \
                 without a structure_version bump"
            );
            // Duplicate columns in a constraint are summed by the lowering.
            let mut kept = fold.kept;
            kept.sort_by_key(|&(col, _)| col);
            let mut k = 0;
            while k < kept.len() {
                let (col, mut sum) = kept[k];
                let mut r = k + 1;
                while r < kept.len() && kept[r].0 == col {
                    sum += kept[r].1;
                    r += 1;
                }
                assert!(
                    (l.lp.matrix().get(row, col) - sum).abs() <= 1e-12 * (1.0 + sum.abs()),
                    "cached row {row} (constraint {ci}) coefficient at column {col} \
                     changed under the cache without a structure_version bump"
                );
                k = r;
            }
        }
        for &ci in &l.const_rows {
            let (terms, _, _) = model.constraint(ci);
            let fold = fold_constraint(&model.vars, &map.col_of_var, terms);
            assert!(
                fold.kept.is_empty(),
                "cached constant row (constraint {ci}) grew free terms under \
                 the cache without a structure_version bump"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarId};
    use sqpr_workload::rng::{Rng, StdRng};

    fn toy() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(3.0);
        let b = m.add_binary(2.0);
        let c = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0), (c, 1.0)], 2.0);
        m.fix_var(c, 1.0);
        m
    }

    /// Bit-compatibility of a slot's current lowering against a fresh
    /// classed lowering over the same folded class.
    fn assert_matches_classed_fresh(slot: &LpCacheSlot, m: &Model) {
        let cached = slot.lowered().expect("slot populated");
        let mut class = vec![false; m.num_vars()];
        for (j, c) in cached.geom.map.col_of_var.iter().enumerate() {
            class[j] = c.is_none();
        }
        let fresh = m.lower_reduced_for_class(&class);
        assert_eq!(cached.lp.ncols(), fresh.lp.ncols());
        assert_eq!(cached.lp.nrows(), fresh.lp.nrows());
        assert_eq!(cached.geom.map.fixed_obj_min, fresh.geom.map.fixed_obj_min);
        assert_eq!(
            cached.geom.map.infeasible_fixed_row,
            fresh.geom.map.infeasible_fixed_row
        );
        assert_eq!(cached.geom.map.col_of_var, fresh.geom.map.col_of_var);
        assert_eq!(cached.geom.map.cons_of_row, fresh.geom.map.cons_of_row);
        assert_eq!(cached.row_fixed_terms, fresh.row_fixed_terms);
        assert_eq!(cached.const_rows, fresh.const_rows);
        let (clb, cub) = cached.lp.col_bounds();
        let (flb, fub) = fresh.lp.col_bounds();
        assert_eq!(clb, flb, "column lower bounds diverged");
        assert_eq!(cub, fub, "column upper bounds diverged");
        let (crlb, crub) = cached.lp.row_bounds();
        let (frlb, frub) = fresh.lp.row_bounds();
        assert_eq!(crlb, frlb, "row lower bounds diverged");
        assert_eq!(crub, frub, "row upper bounds diverged");
        assert_eq!(cached.lp.objective(), fresh.lp.objective());
    }

    #[test]
    fn rebuild_then_patch_matches_fresh_lowering(// the cache must be bit-compatible with to_lp_reduced
    ) {
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
        assert_eq!(slot.stats().patches, 1);
        assert_eq!(slot.stats().refix_patches, 0);
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
        // Freeing the folded variable shrinks the class -> rebuild.
        let c = VarId::from_raw(2);
        m.set_bounds(c, 0.0, 1.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 2);
        // Adding a variable bumps the structure version -> rebuild.
        m.add_binary(1.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 3);
    }

    /// The cross-submission hit the fixed-*set* keying could not take:
    /// fixing a variable *outside* the folded class patches in place (the
    /// kept column collapses its bounds), bit-identical to a fresh classed
    /// lowering, and the refix is counted.
    #[test]
    fn refixing_a_superset_of_the_class_patches() {
        let mut m = toy(); // class = {c}
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 1);

        // Submission 2 pins a different superset: {a, c}, with c moved.
        let a = VarId::from_raw(0);
        let c = VarId::from_raw(2);
        m.fix_var(a, 1.0);
        m.set_bounds(c, 0.0, 0.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 1, "superset re-fix must not rebuild");
        assert_eq!(slot.stats().patches, 1);
        assert_eq!(slot.stats().refix_patches, 1);
        assert_matches_classed_fresh(&slot, &m);

        // Submission 3 releases a (back to the exact class, c at 0).
        m.set_bounds(a, 0.0, 1.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 1);
        assert_eq!(slot.stats().patches, 2);
        assert_eq!(
            slot.stats().refix_patches,
            1,
            "exact-class patch is not a refix"
        );
        assert_matches_classed_fresh(&slot, &m);
    }

    /// Regression test for the `fixed_signature` collision bug: two
    /// distinct fixed sets must never alias to the same layout. The class
    /// is now stored exactly, so a set that frees a folded member rebuilds
    /// (never reuses the wrong column numbering), and a set that merely
    /// differs outside the class patches onto a layout that remains
    /// bit-identical to the classed fresh lowering.
    #[test]
    fn distinct_fixed_sets_never_alias() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..6).map(|i| m.add_binary(1.0 + i as f64)).collect();
        m.add_le(vars.iter().map(|&v| (v, 1.0)).collect(), 3.0);
        m.fix_var(vars[0], 1.0);
        m.fix_var(vars[1], 0.0);
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m); // class = {0, 1}
        assert_matches_classed_fresh(&slot, &m);

        // Distinct set of the same size: {1, 2} — frees folded var 0.
        m.set_bounds(vars[0], 0.0, 1.0);
        m.fix_var(vars[2], 1.0);
        slot.refresh(&m);
        assert_eq!(
            slot.stats().rebuilds,
            2,
            "freeing a folded column must rebuild, whatever the set hashes to"
        );
        assert_matches_classed_fresh(&slot, &m);
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
    /// rather than patching stale rows).
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
    /// same version, same fixed class) — the debug verification pass must
    /// catch it instead of silently patching stale rows.
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

    /// Seeded multi-submission property test: random re-fixing sequences
    /// over a fixed structure must keep the patched lowering bit-identical
    /// to a fresh classed lowering after every round (the cross-submission
    /// mirror of `rebuild_then_patch_matches_fresh_lowering`).
    #[test]
    fn random_refix_sequences_match_classed_fresh_lowerings() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nvars = 4 + rng.gen_index(5);
            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<VarId> = (0..nvars)
                .map(|i| m.add_binary(1.0 + ((i * 7) % 5) as f64))
                .collect();
            for _ in 0..(1 + rng.gen_index(3)) {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &v in &vars {
                    if rng.gen_bool() {
                        terms.push((v, 1.0 + rng.gen_index(3) as f64));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let rhs = 1.0 + rng.gen_index(2 * nvars) as f64;
                m.add_le(terms, rhs);
            }
            let mut slot = LpCacheSlot::new();
            for _round in 0..12 {
                // Re-fix a random subset at random binary values (the
                // planner's deployment-pin pattern).
                for &v in &vars {
                    if rng.gen_bool() {
                        let val = if rng.gen_bool() { 1.0 } else { 0.0 };
                        m.set_bounds(v, val, val);
                    } else {
                        m.set_bounds(v, 0.0, 1.0);
                    }
                }
                slot.refresh(&m);
                assert_matches_classed_fresh(&slot, &m);
            }
            let s = slot.stats();
            assert_eq!(s.rebuilds + s.patches, 12, "seed {seed}: {s:?}");
        }
    }

    /// The factor token is held across pure bound patches and renewed on
    /// matrix changes (rebuilds, appended rows).
    #[test]
    fn factor_token_tracks_matrix_changes() {
        let mut m = toy();
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        let t0 = slot.factor_token;
        assert_ne!(t0, 0, "a populated slot must claim a generation");
        // Pure bound patch: token held.
        let c = VarId::from_raw(2);
        m.set_bounds(c, 0.0, 0.0);
        slot.refresh(&m);
        assert_eq!(slot.factor_token, t0, "bound patches keep the matrix");
        // Appended cut row: matrix changed, token renewed.
        let a = VarId::from_raw(0);
        m.add_le(vec![(a, 1.0)], 1.0);
        slot.refresh(&m);
        let t1 = slot.factor_token;
        assert_ne!(t1, t0, "appended rows change the matrix");
        // Rebuild (freed folded column): token renewed again.
        m.set_bounds(c, 0.0, 1.0);
        slot.refresh(&m);
        assert_ne!(slot.factor_token, t1, "rebuilds change the matrix");
    }

    /// With no bound moved since the last refresh the patch is skipped:
    /// the lowering still matches a fresh one, rows appended meanwhile
    /// join it, and the refix count is the one the skipped patch would
    /// have reported.
    #[test]
    fn unmoved_bounds_skip_the_patch() {
        let mut m = toy();
        let a = VarId::from_raw(0);
        let b = VarId::from_raw(1);
        // `a` is fixed but exempt: a kept column with collapsed bounds.
        m.set_fold_exempt(a, true);
        m.fix_var(a, 1.0);
        let mut slot = LpCacheSlot::new();
        slot.refresh(&m);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 2.0);
        slot.refresh(&m);
        slot.refresh(&m);
        let s = slot.stats();
        assert_eq!((s.rebuilds, s.patches, s.appended_rows), (1, 2, 1));
        assert_eq!(s.refix_patches, 2, "one kept column is bound-fixed");
        assert_matches_classed_fresh(&slot, &m);
        // A moved bound is patched in again.
        m.set_bounds(b, 1.0, 1.0);
        slot.refresh(&m);
        assert_eq!(slot.stats().rebuilds, 1);
        assert_matches_classed_fresh(&slot, &m);
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
        let x = [1.0, 1.0];
        assert!(slot.start_is_feasible(&m, &x, 1e-6));
        assert!(slot.start_is_feasible(&m, &x, 1e-6));
        // An appended row the point satisfies, then one it violates.
        m.add_ge(vec![(a, 1.0)], 1.0);
        assert!(slot.start_is_feasible(&m, &x, 1e-6));
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        assert!(!slot.start_is_feasible(&m, &x, 1e-6));
        assert!(!slot.start_is_feasible(&m, &x, 1e-6));
        // Another point is another question.
        assert!(slot.start_is_feasible(&m, &[1.0, 0.0], 1e-6));
        // So is the same point once a bound moved.
        m.set_bounds(b, 1.0, 1.0);
        assert!(!slot.start_is_feasible(&m, &[1.0, 0.0], 1e-6));
        m.set_bounds(b, 0.0, 0.0);
        assert!(slot.start_is_feasible(&m, &[1.0, 0.0], 1e-6));
    }
}
