//! Simplex basis: factorisation lifecycle, FTRAN/BTRAN, column replacement.
//!
//! The basis consists of `m` variables out of the `n + m` total (structural
//! plus one slack per row). Slack `i` is represented as global column index
//! `n + i` with the single entry `(i, -1.0)`, matching the internal system
//! `A x - s = 0`.
//!
//! ## The solve pipeline
//!
//! Every FTRAN runs `L solve → FT row etas → U solve → order permutation →
//! PFI etas` (BTRAN mirrors it in reverse). `L` is the static factor of the
//! last refactorisation ([`crate::lu::LuFactors`]); `U` lives in the
//! dynamic Forrest–Tomlin engine ([`crate::ft::UFactors`]) so basis changes
//! can edit it in place. Under [`BasisUpdate::ProductForm`] the FT stage is
//! inert and updates append classic PFI etas instead (the ablation
//! baseline, and the fallback when an FT update is numerically rejected).
//!
//! ## Hyper-sparsity
//!
//! Both directions exist in two flavours: dense (`O(m)` sweeps, the old
//! behaviour) and hyper-sparse over [`IndexedVec`] right-hand sides, which
//! use Gilbert–Peierls DFS reachability to visit only the solution's
//! pattern. The dispatch is automatic: a tracked input below the density
//! cutoff takes the sparse kernels, everything else falls back to dense.
//! [`SolveStats`] records which path ran and how dense the results were,
//! so the win is observable end-to-end.

use std::sync::Arc;

use crate::eta::Eta;
use crate::ft::{FtOutcome, FtScratch, UFactors};
use crate::lu::{ColumnOutcome, LuFactors, LuWorkspace};
use crate::sparse::{CscMatrix, IndexedVec};

/// Maximum eta count before a refactorisation is forced (product-form
/// mode; Forrest–Tomlin keys on fill growth instead).
const MAX_ETAS: usize = 64;

/// Hard cap on Forrest–Tomlin updates between refactorisations: fill
/// growth is the primary trigger, this bounds numerical drift on models
/// whose factors barely fill in.
const FT_UPDATE_CAP: usize = 192;

/// Input density above which a solve takes the dense kernels: the DFS
/// bookkeeping only pays for itself while the right-hand side (and
/// therefore, usually, the solution) is genuinely sparse.
const SPARSE_CUTOFF: f64 = 0.22;

/// Result-density EWMA above which a solve channel stops trying the
/// hyper-sparse kernels. A sparse *input* says nothing about the
/// *solution* pattern — a phase-I entering column on a cold basis reaches
/// most of the factors, and there the DFS costs more than the dense sweep
/// it replaces. Each call site tracks the densities its results have been
/// coming out at and bails to dense while they stay high (the estimate
/// keeps updating either way, so channels re-enter the sparse path as the
/// basis cleans up).
const RESULT_DENSITY_CUTOFF: f64 = 0.30;

/// Smoothing factor of the per-channel result-density estimate.
const DENSITY_EWMA_ALPHA: f64 = 0.15;

/// How the basis representation absorbs a column replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisUpdate {
    /// Forrest–Tomlin updates of `U` (default): the factors stay sparse,
    /// refactorisation keys on measured fill growth.
    ForrestTomlin,
    /// Product-form-of-inverse eta file (the pre-FT behaviour; ablation).
    ProductForm,
}

/// Counters describing how the solve pipeline behaved (reset per
/// [`Basis`]; the simplex folds them into
/// [`crate::simplex::PivotCounts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// FTRAN/BTRAN solves served by the hyper-sparse kernels.
    pub sparse_solves: usize,
    /// Solves that fell back to the dense kernels.
    pub dense_solves: usize,
    /// Sampling-weighted sum of result nonzeros (density numerator):
    /// sparse solves are counted exactly, dense solves are sampled every
    /// 4th and weighted by the stride, so the ratio to [`Self::solve_dim`]
    /// is an unbiased mean-density estimate — the sums themselves are
    /// estimators, not exact totals.
    pub solve_nnz: usize,
    /// Sampling-weighted sum of basis dimensions (density denominator;
    /// see [`Self::solve_nnz`]).
    pub solve_dim: usize,
    /// Forrest–Tomlin updates applied.
    pub ft_updates: usize,
    /// Product-form etas appended (mode or FT-rejection fallback).
    pub pfi_updates: usize,
}

/// Why a basis is refactorised: the cause counters of
/// [`crate::simplex::PivotCounts`] (`refactor_*`), one per
/// refactorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefactorCause {
    /// A solve began with no cached factors under its generation (no
    /// token, a renewed token, or a cache the caller dropped).
    NoCachedFactors,
    /// A solve's cached factors were for a different basic set (or update
    /// mode, or dimension).
    BasisChanged,
    /// The pivot cap between refactorisations.
    PivotCap,
    /// The update representation's fill or count cap: Forrest–Tomlin fill
    /// growth or update cap, product-form eta count or fill.
    UpdateFill,
    /// A numerically rejected Forrest–Tomlin update fell back to a
    /// product-form eta.
    RejectedUpdate,
    /// The dual loop's pivot cross-check found FTRAN and BTRAN disagreeing.
    Drift,
}

/// Detached factorisation state, reusable across solves.
///
/// A branch & bound child starts from its parent's *exact* basic set —
/// only variable bounds moved — so the parent's factorisation is already
/// the child's. Callers stash the state in an
/// [`crate::simplex::LpWorkspace`] between solves; [`Basis::build`]
/// re-installs it when the requested basic set (and the caller's
/// matrix-generation `token`) matches, skipping the refactorisation that
/// otherwise dominates short warm re-solves.
///
/// The reuse scope is exactly the token's lifetime, which the caller
/// controls: claiming a fresh token per branch & bound tree scopes reuse
/// to that tree's node solves, while holding one token across consecutive
/// trees over a byte-identical matrix
/// ([`crate::simplex::LpWorkspace::resume_factor_generation`]) lets a
/// later tree's root re-attach the previous tree's final factorisation —
/// the cross-submission warm path of a caller whose compressed LP only
/// had its bounds patched between solves.
#[derive(Debug, Clone)]
pub struct FactorState {
    /// Caller-assigned matrix generation; a state only re-attaches under
    /// the same token (the caller guarantees the matrix is unchanged for
    /// the token's lifetime).
    pub(crate) token: u64,
    basic: Vec<usize>,
    update_mode: BasisUpdate,
    /// The static `L` factor, shared by every copy: no update touches it.
    factors: Arc<LuFactors>,
    uf: UFactors,
    etas: Vec<Eta>,
    col_order: Vec<usize>,
    pos_to_order: Vec<usize>,
    updates_since_refactor: usize,
}

impl FactorState {
    /// The matrix generation this state was detached under.
    pub fn token(&self) -> u64 {
        self.token
    }
}

/// The scratch a [`Basis`] solves and updates in: the LU workspace, the
/// FTRAN permutation buffer, the sparse pipelines' ping-pong vector, the
/// Forrest–Tomlin `z` image and the update engine's own scratch. It lives
/// in the caller's [`crate::simplex::LpWorkspace`] and is lent to each
/// solve's basis, so a [`FactorState`] — and every copy a branch & bound
/// seed makes of one — holds factors only. No buffer is read before the
/// solve that uses it writes it, so which basis used it last is invisible.
#[derive(Debug, Default)]
pub struct BasisScratch {
    lu: LuWorkspace,
    perm_buf: Vec<f64>,
    /// Ping-pong buffer for the sparse pipelines (pivot-order space).
    work: IndexedVec,
    /// The FT update's `z` image (pivot-order space).
    zbuf: IndexedVec,
    ft: FtScratch,
}

impl BasisScratch {
    /// Sizes the buffers for an `m`-row basis.
    fn fit(&mut self, m: usize) {
        self.perm_buf.resize(m, 0.0);
        self.work.reset(m);
        self.zbuf.reset(m);
    }
}

/// Manages the basis matrix of the revised simplex method.
pub struct Basis<'a> {
    /// Structural columns (m x n).
    a: &'a CscMatrix,
    m: usize,
    n: usize,
    /// `basic[p]` = global column index occupying basis position `p`.
    basic: Vec<usize>,
    /// Processing order used at the last factorisation:
    /// `col_order[k]` = basis position processed k-th.
    col_order: Vec<usize>,
    /// `pos_to_order[p]` = k such that `col_order[k] == p`.
    pos_to_order: Vec<usize>,
    /// The static `L` factor (plus permutations); `U` is moved out into
    /// the Forrest–Tomlin engine after every refactorisation. Shared with
    /// the detached copies of this factorisation: updates never touch it.
    factors: Arc<LuFactors>,
    uf: UFactors,
    /// PFI eta file: the update representation in [`BasisUpdate::ProductForm`]
    /// mode, and the fallback when an FT update is rejected.
    etas: Vec<Eta>,
    update_mode: BasisUpdate,
    /// Fill-growth ratio at which FT mode refactorises.
    fill_limit: f64,
    force_refactor: bool,
    scratch: BasisScratch,
    refactor_count: usize,
    updates_since_refactor: usize,
    stats: SolveStats,
}

impl<'a> Basis<'a> {
    /// Creates a basis over the structural matrix with the given initial
    /// basic set (global column indices, one per row) and factorises it.
    pub fn new(a: &'a CscMatrix, basic: Vec<usize>, update_mode: BasisUpdate) -> Self {
        Self::with_fill_limit(a, basic, update_mode, 3.0)
    }

    /// Like [`Self::new`] with an explicit Forrest–Tomlin fill-growth
    /// refactorisation threshold.
    pub fn with_fill_limit(
        a: &'a CscMatrix,
        basic: Vec<usize>,
        update_mode: BasisUpdate,
        fill_limit: f64,
    ) -> Self {
        Self::build(
            a,
            basic,
            update_mode,
            fill_limit,
            None,
            BasisScratch::default(),
        )
        .0
    }

    /// Full-control constructor: like [`Self::with_fill_limit`], working in
    /// `scratch`, except that a cached [`FactorState`] whose basic set,
    /// update mode and dimensions match is re-installed instead of
    /// refactorising. Returns whether the cache hit.
    pub fn build(
        a: &'a CscMatrix,
        basic: Vec<usize>,
        update_mode: BasisUpdate,
        fill_limit: f64,
        cache: Option<FactorState>,
        mut scratch: BasisScratch,
    ) -> (Self, bool) {
        let m = a.nrows();
        let n = a.ncols();
        assert_eq!(basic.len(), m, "basis must have one column per row");
        scratch.fit(m);
        if let Some(state) = cache {
            if state.update_mode == update_mode && state.factors.m() == m && state.basic == basic {
                let b = Basis {
                    a,
                    m,
                    n,
                    basic,
                    col_order: state.col_order,
                    pos_to_order: state.pos_to_order,
                    factors: state.factors,
                    uf: state.uf,
                    etas: state.etas,
                    update_mode,
                    fill_limit,
                    force_refactor: false,
                    scratch,
                    refactor_count: 0,
                    updates_since_refactor: state.updates_since_refactor,
                    stats: SolveStats::default(),
                };
                return (b, true);
            }
        }
        let mut b = Basis {
            a,
            m,
            n,
            basic,
            col_order: Vec::new(),
            pos_to_order: Vec::new(),
            factors: Arc::new(LuFactors::factorize(0, |_, _| {}, &mut LuWorkspace::new()).0),
            uf: UFactors::new(),
            etas: Vec::new(),
            update_mode,
            fill_limit,
            force_refactor: false,
            scratch,
            refactor_count: 0,
            updates_since_refactor: 0,
            stats: SolveStats::default(),
        };
        b.refactorize();
        (b, false)
    }

    /// Detaches the factorisation for reuse by a later solve over the same
    /// matrix (see [`FactorState`]) and hands the scratch back.
    pub fn into_state(self, token: u64) -> (FactorState, BasisScratch) {
        let state = FactorState {
            token,
            basic: self.basic,
            update_mode: self.update_mode,
            factors: self.factors,
            uf: self.uf,
            etas: self.etas,
            col_order: self.col_order,
            pos_to_order: self.pos_to_order,
            updates_since_refactor: self.updates_since_refactor,
        };
        (state, self.scratch)
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Global column index at basis position `p`.
    #[inline]
    pub fn basic_at(&self, p: usize) -> usize {
        self.basic[p]
    }

    pub fn basic_columns(&self) -> &[usize] {
        &self.basic
    }

    /// How many times this basis has been refactorised (diagnostics).
    pub fn refactor_count(&self) -> usize {
        self.refactor_count
    }

    /// Basis changes absorbed since the last refactorisation.
    pub fn updates_since_refactor(&self) -> usize {
        self.updates_since_refactor
    }

    /// Solve-path counters accumulated so far.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Scatters the global column `j` into an [`IndexedVec`] (row space),
    /// registering the pattern.
    #[inline]
    pub fn scatter_column_sp(&self, j: usize, out: &mut IndexedVec) {
        if j < self.n {
            for (r, v) in self.a.col_iter(j) {
                out.add(r, v);
            }
        } else {
            out.add(j - self.n, -1.0);
        }
    }

    /// Re-factorises from scratch, repairing singular positions by
    /// substituting slack columns of unpivoted rows. Returns the basis
    /// positions that were repaired (their previous variables left the
    /// basis implicitly).
    pub fn refactorize(&mut self) -> Vec<usize> {
        self.refactor_count += 1;
        self.updates_since_refactor = 0;
        self.force_refactor = false;
        self.etas.clear();
        // Order columns by sparsity: slacks (1 nonzero) first, then by nnz.
        let mut order: Vec<usize> = (0..self.m).collect();
        order.sort_by_key(|&p| {
            let j = self.basic[p];
            if j >= self.n {
                0
            } else {
                self.a.col_nnz(j)
            }
        });
        let mut repaired = Vec::new();
        loop {
            let basic = &self.basic;
            let n = self.n;
            let a = self.a;
            let (mut factors, outcomes) = LuFactors::factorize(
                self.m,
                |k, out| {
                    let j = basic[order[k]];
                    if j < n {
                        out.extend(a.col_iter(j));
                    } else {
                        out.push((j - n, -1.0));
                    }
                },
                &mut self.scratch.lu,
            );
            let singular: Vec<usize> = outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o, ColumnOutcome::Singular))
                .map(|(k, _)| k)
                .collect();
            if singular.is_empty() {
                let (u, u_diag) = factors.take_u();
                self.uf.rebuild(&u, u_diag);
                self.factors = Arc::new(factors);
                break;
            }
            // Repair: assign each singular position the slack of a row that
            // ended up unpivoted, then refactorise again.
            let unpivoted: Vec<usize> = (0..self.m)
                .filter(|&r| factors.pinv()[r] == usize::MAX)
                .collect();
            assert!(unpivoted.len() >= singular.len());
            // Pair each singular position with an unpivoted row from the
            // back (same assignment as repeated pop), panic-free.
            for (k, row) in singular.into_iter().zip(unpivoted.into_iter().rev()) {
                let p = order[k];
                self.basic[p] = self.n + row;
                repaired.push(p);
            }
        }
        self.col_order = order;
        self.pos_to_order = vec![0; self.m];
        for (k, &p) in self.col_order.iter().enumerate() {
            self.pos_to_order[p] = k;
        }
        repaired
    }

    /// Whether, and why, the update representation has degraded enough
    /// that the caller should refactorise: a rejected Forrest–Tomlin
    /// update that fell back to a product-form eta, else eta count / eta
    /// fill in product-form mode and measured fill growth (plus a
    /// drift-bounding update cap) in Forrest–Tomlin mode.
    pub(crate) fn refactor_due(&self) -> Option<RefactorCause> {
        let rejected = self.force_refactor
            || (self.update_mode == BasisUpdate::ForrestTomlin && !self.etas.is_empty());
        if rejected {
            return Some(RefactorCause::RejectedUpdate);
        }
        let degraded = match self.update_mode {
            BasisUpdate::ProductForm => {
                self.etas.len() >= MAX_ETAS
                    || self.etas.iter().map(Eta::nnz).sum::<usize>()
                        > 2 * (self.factors.l_nnz() + self.uf.fill_nnz()) + 64
            }
            BasisUpdate::ForrestTomlin => {
                self.uf.fill_ratio() > self.fill_limit || self.uf.updates() >= FT_UPDATE_CAP
            }
        };
        degraded.then_some(RefactorCause::UpdateFill)
    }

    /// Density-based kernel dispatch: the input must be tracked and
    /// sparse, and the channel's recent *results* must have been sparse
    /// too (see [`RESULT_DENSITY_CUTOFF`]).
    #[inline]
    fn sparse_eligible(&self, x: &IndexedVec, density_ewma: f64) -> bool {
        x.is_sparse()
            && (x.nnz() as f64) < SPARSE_CUTOFF * self.m as f64
            && density_ewma < RESULT_DENSITY_CUTOFF
    }

    #[inline]
    fn record_solve(&mut self, x: &IndexedVec, sparse: bool, density_ewma: &mut f64) {
        if sparse {
            self.stats.sparse_solves += 1;
        } else {
            self.stats.dense_solves += 1;
            // Counting a dense result is an O(m) scan; sample every 4th
            // dense solve instead of paying it on each one. The sampled
            // observation is weighted by the stride below so the
            // mean-density statistic stays unbiased between the (always
            // counted) sparse channel and the sampled dense channel.
            if self.stats.dense_solves % 4 != 1 {
                return;
            }
            let nnz = x.count_nonzeros();
            self.stats.solve_nnz += 4 * nnz;
            self.stats.solve_dim += 4 * self.m;
            if self.m > 0 {
                let density = nnz as f64 / self.m as f64;
                *density_ewma += DENSITY_EWMA_ALPHA * (density - *density_ewma);
            }
            return;
        }
        let nnz = x.count_nonzeros();
        self.stats.solve_nnz += nnz;
        self.stats.solve_dim += self.m;
        if self.m > 0 {
            let density = nnz as f64 / self.m as f64;
            *density_ewma += DENSITY_EWMA_ALPHA * (density - *density_ewma);
        }
    }

    /// Solves `B w = b`. `b` is row-indexed; the result is basis-position
    /// indexed (`w[p]` pairs with `basic[p]`). Dense entry point.
    pub fn ftran(&mut self, b: &mut [f64]) {
        self.ftran_dense_slice(b);
    }

    fn ftran_dense_slice(&mut self, b: &mut [f64]) {
        self.factors.l_solve_dense(b);
        let rowof = self.factors.rowof();
        let perm_buf = &mut self.scratch.perm_buf;
        for k in 0..self.m {
            perm_buf[k] = b[rowof[k]];
        }
        self.uf.ftran_upper_dense(perm_buf);
        for k in 0..self.m {
            b[self.col_order[k]] = perm_buf[k];
        }
        for eta in &self.etas {
            eta.apply_ftran(b);
        }
    }

    /// Sparsity-aware FTRAN: `x` is row-indexed on entry (pattern tracked)
    /// and basis-position indexed on exit. Dispatches to the hyper-sparse
    /// kernels when the input is sparse enough *and* this channel's recent
    /// results were too; `density_ewma` is the caller-owned estimate (one
    /// per call site — entering columns, flip batches, … have very
    /// different density profiles).
    pub fn ftran_sp(&mut self, x: &mut IndexedVec, density_ewma: &mut f64) {
        debug_assert_eq!(x.len(), self.m);
        if !self.sparse_eligible(x, *density_ewma) {
            x.make_dense();
            let mut buf = std::mem::take(x);
            self.ftran_dense_slice(buf.as_mut_slice());
            *x = buf;
            self.record_solve(x, false, density_ewma);
            return;
        }
        let BasisScratch { lu, work, .. } = &mut self.scratch;
        self.factors.l_solve_sparse(x, lu);
        // Permute row space -> pivot-order space.
        work.clear();
        let pinv = self.factors.pinv();
        x.for_each_nonzero(|r, v| work.set(pinv[r], v));
        x.clear();
        self.uf.ftran_upper_sparse(work, lu);
        // Permute pivot-order space -> basis positions.
        work.for_each_nonzero(|k, v| x.set(self.col_order[k], v));
        work.clear();
        for eta in &self.etas {
            eta.apply_ftran_sp(x);
        }
        self.record_solve(x, true, density_ewma);
    }

    /// Solves `B^T y = c`. `c` is basis-position indexed; the result is
    /// row-indexed (dual values). Dense entry point.
    pub fn btran(&mut self, c: &mut [f64]) {
        self.btran_dense_slice(c);
    }

    fn btran_dense_slice(&mut self, c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            eta.apply_btran(c);
        }
        let perm_buf = &mut self.scratch.perm_buf;
        for k in 0..self.m {
            perm_buf[k] = c[self.col_order[k]];
        }
        self.uf.btran_upper_dense(perm_buf);
        c.iter_mut().for_each(|v| *v = 0.0);
        self.factors.lt_solve_dense(perm_buf, c);
    }

    /// Sparsity-aware BTRAN: `c` is basis-position indexed on entry
    /// (pattern tracked) and row-indexed on exit. `density_ewma` as in
    /// [`Self::ftran_sp`].
    pub fn btran_sp(&mut self, c: &mut IndexedVec, density_ewma: &mut f64) {
        debug_assert_eq!(c.len(), self.m);
        if !self.sparse_eligible(c, *density_ewma) {
            c.make_dense();
            let mut buf = std::mem::take(c);
            self.btran_dense_slice(buf.as_mut_slice());
            *c = buf;
            self.record_solve(c, false, density_ewma);
            return;
        }
        for eta in self.etas.iter().rev() {
            eta.apply_btran_sp(c);
        }
        // Permute basis positions -> pivot-order space.
        let BasisScratch { lu, work, ft, .. } = &mut self.scratch;
        work.clear();
        c.for_each_nonzero(|p, v| work.set(self.pos_to_order[p], v));
        c.clear();
        self.uf.btran_upper_sparse(work, lu, ft);
        self.factors.lt_solve_sparse(work, c, lu);
        work.clear();
        self.record_solve(c, true, density_ewma);
    }

    /// Replaces the basic variable at position `p` with global column `j`.
    /// `w` must be the FTRAN image of column `j` under the *current* basis
    /// (basis-position indexed). Returns the outgoing global column.
    ///
    /// In Forrest–Tomlin mode the update edits `U` in place; a numerically
    /// rejected update falls back to a PFI eta and schedules a
    /// refactorisation (correctness is never at stake — the eta is exact).
    pub fn replace(&mut self, p: usize, j: usize, w: &IndexedVec) -> usize {
        let out = self.basic[p];
        self.basic[p] = j;
        self.updates_since_refactor += 1;
        if self.update_mode == BasisUpdate::ForrestTomlin && self.etas.is_empty() {
            let t = self.pos_to_order[p];
            let BasisScratch { lu, zbuf, ft, .. } = &mut self.scratch;
            zbuf.clear();
            w.for_each_nonzero(|pp, v| zbuf.set(self.pos_to_order[pp], v));
            match self.uf.ft_update(t, zbuf, lu, ft) {
                FtOutcome::Applied => {
                    self.stats.ft_updates += 1;
                    return out;
                }
                FtOutcome::Rejected => self.force_refactor = true,
            }
        }
        self.stats.pfi_updates += 1;
        self.etas.push(Eta::from_indexed(p, w, 1e-13));
        out
    }

    /// FTRAN image of the global column `j` into `out` (which must be
    /// cleared): the hyper-sparse entering-column solve.
    pub fn ftran_column_sp(&mut self, j: usize, out: &mut IndexedVec) {
        self.scatter_column_sp(j, out);
        let mut ewma = 0.0;
        self.ftran_sp(out, &mut ewma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplet;

    fn tri(row: usize, col: usize, value: f64) -> Triplet {
        Triplet { row, col, value }
    }

    /// 3x2 structural matrix; slack columns are globals 2, 3, 4.
    fn small_a() -> CscMatrix {
        CscMatrix::from_triplets(
            3,
            2,
            &[
                tri(0, 0, 1.0),
                tri(1, 0, 2.0),
                tri(0, 1, -1.0),
                tri(2, 1, 4.0),
            ],
        )
    }

    fn iv(vals: &[f64]) -> IndexedVec {
        let mut v = IndexedVec::zeros(vals.len());
        for (i, &x) in vals.iter().enumerate() {
            if x != 0.0 {
                v.set(i, x);
            }
        }
        v
    }

    fn both_modes(a: &CscMatrix, basic: Vec<usize>) -> [Basis<'_>; 2] {
        [
            Basis::new(a, basic.clone(), BasisUpdate::ForrestTomlin),
            Basis::new(a, basic, BasisUpdate::ProductForm),
        ]
    }

    #[test]
    fn slack_basis_ftran_is_negation() {
        let a = small_a();
        for mut basis in both_modes(&a, vec![2, 3, 4]) {
            // B = -I, so B w = b -> w = -b.
            let mut b = vec![1.0, -2.0, 0.5];
            basis.ftran(&mut b);
            assert_eq!(b, vec![-1.0, 2.0, -0.5]);
            let mut c = vec![3.0, 1.0, -1.0];
            basis.btran(&mut c);
            assert_eq!(c, vec![-3.0, -1.0, 1.0]);
        }
    }

    #[test]
    fn replace_and_solve_consistent() {
        let a = small_a();
        for mut basis in both_modes(&a, vec![2, 3, 4]) {
            // Bring structural column 0 into position 0.
            let mut w = IndexedVec::zeros(3);
            basis.ftran_column_sp(0, &mut w);
            assert_eq!(w.as_slice(), &[-1.0, -2.0, 0.0]); // -(col 0)
            basis.replace(0, 0, &w);
            // Now B = [a0 | -e1 | -e2]. Solve B z = [1,2,0]^T => z = e0.
            let mut b = vec![1.0, 2.0, 0.0];
            basis.ftran(&mut b);
            assert!((b[0] - 1.0).abs() < 1e-12);
            assert!(b[1].abs() < 1e-12 && b[2].abs() < 1e-12);
            // BTRAN: solve B^T y = c with c = e0 -> col0 . y = 1, -y1 = 0.
            let mut c = vec![1.0, 0.0, 0.0];
            basis.btran(&mut c);
            assert!((c[0] * 1.0 + c[1] * 2.0 - 1.0).abs() < 1e-12);
            assert!(c[1].abs() < 1e-12 && c[2].abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_and_dense_solves_agree_after_replacements() {
        let a = small_a();
        for mut basis in both_modes(&a, vec![2, 3, 4]) {
            let mut w = IndexedVec::zeros(3);
            basis.ftran_column_sp(0, &mut w);
            basis.replace(0, 0, &w);
            let mut w2 = IndexedVec::zeros(3);
            basis.ftran_column_sp(1, &mut w2);
            assert!(w2[2].abs() > 1e-12, "position 2 must be pivotable");
            basis.replace(2, 1, &w2);

            let rhs = [0.3, -1.2, 2.0];
            let mut dense = rhs.to_vec();
            basis.ftran(&mut dense);
            let mut sp = iv(&rhs);
            basis.ftran_sp(&mut sp, &mut 0.0);
            for i in 0..3 {
                assert!((dense[i] - sp[i]).abs() < 1e-10, "{dense:?} vs sparse");
            }

            let c = [1.0, 0.0, -0.5];
            let mut cd = c.to_vec();
            basis.btran(&mut cd);
            let mut cs = iv(&c);
            basis.btran_sp(&mut cs, &mut 0.0);
            for i in 0..3 {
                assert!((cd[i] - cs[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn refactorize_after_replacements_matches_update_solves() {
        let a = small_a();
        for mut basis in both_modes(&a, vec![2, 3, 4]) {
            let mut w = IndexedVec::zeros(3);
            basis.ftran_column_sp(0, &mut w);
            basis.replace(0, 0, &w);
            let mut w2 = IndexedVec::zeros(3);
            basis.ftran_column_sp(1, &mut w2);
            basis.replace(2, 1, &w2);

            let rhs = vec![0.3, -1.2, 2.0];
            let mut via_update = rhs.clone();
            basis.ftran(&mut via_update);
            let repaired = basis.refactorize();
            assert!(repaired.is_empty());
            let mut via_lu = rhs.clone();
            basis.ftran(&mut via_lu);
            for (x, y) in via_update.iter().zip(&via_lu) {
                assert!((x - y).abs() < 1e-9, "{via_update:?} vs {via_lu:?}");
            }
        }
    }

    #[test]
    fn ft_updates_are_counted() {
        let a = small_a();
        let mut basis = Basis::new(&a, vec![2, 3, 4], BasisUpdate::ForrestTomlin);
        let mut w = IndexedVec::zeros(3);
        basis.ftran_column_sp(0, &mut w);
        basis.replace(0, 0, &w);
        let s = basis.stats();
        assert_eq!(s.ft_updates, 1);
        assert_eq!(s.pfi_updates, 0);
        // m = 3 sits below any useful density cutoff, so the solves are
        // recorded as dense — the sparse path is exercised on larger
        // systems in `sparse_path_engages_on_large_sparse_basis`. The
        // density sums are sampled (weight-corrected), so only their
        // presence and divisibility are meaningful here.
        assert!(s.sparse_solves + s.dense_solves >= 1);
        assert!(s.solve_dim >= 3 && s.solve_dim.is_multiple_of(3));
    }

    /// On a large, genuinely sparse basis the solve dispatch must pick the
    /// hyper-sparse kernels and agree with the dense ones.
    #[test]
    fn sparse_path_engages_on_large_sparse_basis() {
        let m = 60;
        // Banded structural matrix: column j covers rows j and j+1.
        let mut trips = Vec::new();
        for j in 0..m - 1 {
            trips.push(tri(j, j, 2.0 + (j % 3) as f64));
            trips.push(tri(j + 1, j, 1.0));
        }
        let a = CscMatrix::from_triplets(m, m - 1, &trips);
        // Mixed basis: alternating structurals and slacks.
        let basic: Vec<usize> = (0..m)
            .map(|i| {
                if i % 2 == 0 && i < m - 1 {
                    i
                } else {
                    m - 1 + i
                }
            })
            .collect();
        let mut ft = Basis::new(&a, basic.clone(), BasisUpdate::ForrestTomlin);
        let mut rhs = IndexedVec::zeros(m);
        rhs.set(7, 1.0);
        rhs.set(8, -2.0);
        let mut dense = rhs.as_slice().to_vec();
        ft.ftran_sp(&mut rhs, &mut 0.0);
        ft.ftran(&mut dense);
        for i in 0..m {
            assert!((rhs[i] - dense[i]).abs() < 1e-10);
        }
        let s = ft.stats();
        assert!(s.sparse_solves >= 1, "{s:?}");
        // BTRAN from a unit seed is the canonical hyper-sparse case.
        let mut c = IndexedVec::zeros(m);
        c.set(31, 1.0);
        let mut cd = c.as_slice().to_vec();
        ft.btran_sp(&mut c, &mut 0.0);
        ft.btran(&mut cd);
        for i in 0..m {
            assert!((c[i] - cd[i]).abs() < 1e-10);
        }
        assert!(ft.stats().sparse_solves >= 2, "{:?}", ft.stats());
    }

    #[test]
    fn repairs_singular_basis() {
        // Two copies of the same structural column cannot form a basis; the
        // repair should kick one out for a slack.
        let a = CscMatrix::from_triplets(2, 2, &[tri(0, 0, 1.0), tri(0, 1, 1.0)]);
        let mut basis = Basis::new(&a, vec![0, 1], BasisUpdate::ForrestTomlin);
        // After repair the basis must be solvable.
        let mut b = vec![1.0, 1.0];
        basis.ftran(&mut b);
        let cols = basis.basic_columns();
        assert!(
            cols.contains(&2) || cols.contains(&3),
            "slack substituted: {cols:?}"
        );
    }
}
