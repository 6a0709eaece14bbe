//! Forrest–Tomlin updates of the upper factor `U`.
//!
//! After a basis change, the product-form (PFI) update appends an eta
//! whose density is the density of the entering column's *FTRAN image* —
//! which fills in as the eta file grows, so long pivot runs degrade
//! towards dense etas and force frequent refactorisations (the fixed
//! 64-eta cap). The Forrest–Tomlin update instead edits `U` itself:
//!
//! 1. the leaving variable's `U` column `t` is replaced by the **spike**
//!    `g = U z` (the partial FTRAN of the entering column, i.e.
//!    `L̃^{-1} P a_q` where `L̃` absorbs all previous updates);
//! 2. position `t` is cyclically moved to the *end* of the pivot order,
//!    which leaves the matrix upper triangular except for the old row `t`;
//! 3. that row is eliminated against the trailing block — its multipliers
//!    `α` solve `Ũ^T α = r` (one hyper-sparse triangular solve over the
//!    row's reach) and are stored as a **row eta** applied between `L` and
//!    `U` in every subsequent solve. `U`'s new diagonal at `t` becomes
//!    `g_t − α^T g`.
//!
//! The factors therefore stay as sparse as `U` itself plus the (typically
//! tiny) row etas, and the refactorisation policy can key on *measured
//! fill growth* ([`UFactors::fill_ratio`]) instead of an update count.
//!
//! `U` is stored doubly — columns and rows, both position-indexed — in
//! segmented flat arenas: per-segment headroom over shared arrays, so the
//! dense solves sweep contiguous memory (a `Vec<Vec<_>>` would cost a
//! pointer chase and an allocation per column per rebuild) while updates
//! still get O(1) appends and O(segment) deletions, relocating a segment
//! to the arena tail only when its headroom runs out. The triangular
//! order is a doubly-linked list, so the cyclic permutation is O(1). The
//! same storage serves the hyper-sparse `U`/`U^T` solves (DFS reachability
//! over the column/row graphs, shared with `lu.rs` via
//! [`LuWorkspace::reach`]).
//!
//! [`LuWorkspace::reach`]: crate::lu::LuWorkspace

use crate::lu::LuWorkspace;
use crate::sparse::{ColumnStore, IndexedVec};

/// One Forrest–Tomlin row eta: the elimination multipliers of the spiked
/// row. FTRAN applies `g[pos] -= Σ α_k g[k]`; BTRAN applies the transpose
/// `w[k] -= α_k w[pos]`.
#[derive(Debug, Clone)]
pub struct RowEta {
    pub pos: usize,
    pub terms: Vec<(usize, f64)>,
}

/// Outcome of one [`UFactors::ft_update`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtOutcome {
    /// `U` and the eta file were updated in place.
    Applied,
    /// The new diagonal was numerically unusable; `U` is untouched and the
    /// caller must fall back (PFI eta + forced refactorisation).
    Rejected,
}

/// Entries smaller than this are dropped when a spike column is stored
/// (mirrors the PFI eta drop tolerance).
const SPIKE_DROP_TOL: f64 = 1e-13;

/// Relative floor for the updated diagonal `g_t − α^T g`: below this the
/// update is rejected as numerically unstable.
const DIAG_REL_TOL: f64 = 1e-10;

/// Headroom added to every segment at rebuild, absorbing the first few
/// update-time insertions without relocation.
const SEG_SLACK: usize = 2;

/// Segmented flat storage: `m` growable `(index, value)` segments packed
/// into two shared arrays. Reading a segment is a contiguous slice;
/// appending beyond a segment's capacity relocates just that segment to
/// the arena tail (the hole is reclaimed at the next rebuild).
#[derive(Debug, Clone, Default)]
struct SegArena {
    start: Vec<usize>,
    len: Vec<usize>,
    cap: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl SegArena {
    /// Lays the arena out for `sizes[s]`-entry segments (plus slack),
    /// leaving every segment empty. Reuses the backing allocations.
    fn reset(&mut self, sizes: impl Iterator<Item = usize>) {
        self.start.clear();
        self.len.clear();
        self.cap.clear();
        let mut acc = 0usize;
        for s in sizes {
            self.start.push(acc);
            self.len.push(0);
            self.cap.push(s + SEG_SLACK);
            acc += s + SEG_SLACK;
        }
        self.idx.clear();
        self.idx.resize(acc, 0);
        self.val.clear();
        self.val.resize(acc, 0.0);
    }

    #[inline]
    fn seg(&self, s: usize) -> (&[usize], &[f64]) {
        let lo = self.start[s];
        let hi = lo + self.len[s];
        (&self.idx[lo..hi], &self.val[lo..hi])
    }

    /// `child`-th neighbour index of segment `s` (DFS resume access).
    #[inline]
    fn neighbor(&self, s: usize, child: usize) -> Option<usize> {
        if child < self.len[s] {
            Some(self.idx[self.start[s] + child])
        } else {
            None
        }
    }

    fn push(&mut self, s: usize, key: usize, v: f64) {
        if self.len[s] == self.cap[s] {
            let new_cap = (2 * self.cap[s]).max(4);
            let new_start = self.idx.len();
            for t in 0..self.len[s] {
                let p = self.start[s] + t;
                self.idx.push(self.idx[p]);
                self.val.push(self.val[p]);
            }
            self.idx.resize(new_start + new_cap, 0);
            self.val.resize(new_start + new_cap, 0.0);
            self.start[s] = new_start;
            self.cap[s] = new_cap;
        }
        let p = self.start[s] + self.len[s];
        self.idx[p] = key;
        self.val[p] = v;
        self.len[s] += 1;
    }

    /// Removes the entry with index `key` from segment `s` (swap-remove).
    fn remove_entry(&mut self, s: usize, key: usize) {
        let lo = self.start[s];
        for t in 0..self.len[s] {
            if self.idx[lo + t] == key {
                let last = lo + self.len[s] - 1;
                self.idx.swap(lo + t, last);
                self.val.swap(lo + t, last);
                self.len[s] -= 1;
                return;
            }
        }
    }

    #[inline]
    fn clear_seg(&mut self, s: usize) {
        self.len[s] = 0;
    }
}

/// Scratch the update engine works in: the spike and multipliers of the
/// update in progress and the per-segment sizes of a layout. Owned by the
/// caller (the basis lends it from [`crate::basis::BasisScratch`]), so a
/// copy of a [`UFactors`] copies factors, never scratch.
#[derive(Debug, Clone, Default)]
pub struct FtScratch {
    /// The spike `g = U z` of the update in progress.
    spike: IndexedVec,
    /// The elimination multipliers `α`.
    alpha: IndexedVec,
    /// Per-segment sizes while an arena is laid out.
    sizes: Vec<usize>,
}

/// The dynamic upper factor: `U` under a mutable pivot order, plus the
/// Forrest–Tomlin row-eta file. All indices are *pivot positions* (the
/// `k`-space of [`crate::lu::LuFactors`]); only the traversal order
/// changes across updates.
#[derive(Debug, Clone, Default)]
pub struct UFactors {
    m: usize,
    /// Off-diagonal column entries: segment `k` lists `(i, v)` with `i`
    /// earlier than `k` in the current order.
    cols: SegArena,
    /// Off-diagonal row entries: segment `i` lists `(k, v)` with `k` later
    /// than `i` in the current order. Exact transpose of `cols`; built
    /// lazily on the first use (`U^T` reachability or an FT update) —
    /// zero-pivot warm solves never pay for it.
    rows: SegArena,
    rows_built: bool,
    diag: Vec<f64>,
    /// Doubly-linked triangular order (`usize::MAX` terminates).
    next: Vec<usize>,
    prev: Vec<usize>,
    head: usize,
    tail: usize,
    etas: Vec<RowEta>,
    /// Off-diagonal entry count of `U` right after the last rebuild.
    base_nnz: usize,
    /// Current off-diagonal entry count of `U`.
    nnz: usize,
    eta_nnz: usize,
    updates: usize,
}

impl UFactors {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Rebuilds from a freshly factorised `U` (as produced by
    /// [`crate::lu::LuFactors::take_u`]): entries are `(pivot_position,
    /// value)` per column, diagonal separate, natural `0..m` order.
    pub fn rebuild(&mut self, u: &ColumnStore, diag: Vec<f64>) {
        let m = diag.len();
        self.m = m;
        self.diag = diag;
        self.cols.reset((0..m).map(|k| u.col_nnz(k)));
        let nnz = u.nnz();
        for k in 0..m {
            for (i, v) in u.col_iter(k) {
                self.cols.push(k, i, v);
            }
        }
        self.rows_built = false;
        self.nnz = nnz;
        self.base_nnz = nnz;
        self.eta_nnz = 0;
        self.updates = 0;
        self.etas.clear();
        self.next.clear();
        self.prev.clear();
        self.next
            .extend((0..m).map(|k| if k + 1 < m { k + 1 } else { usize::MAX }));
        self.prev
            .extend((0..m).map(|k| if k == 0 { usize::MAX } else { k - 1 }));
        self.head = if m == 0 { usize::MAX } else { 0 };
        self.tail = if m == 0 { usize::MAX } else { m - 1 };
    }

    /// Builds the row mirror from the current columns if absent.
    fn ensure_rows(&mut self, sizes: &mut Vec<usize>) {
        if self.rows_built {
            return;
        }
        self.rows_built = true;
        sizes.clear();
        sizes.resize(self.m, 0);
        for k in 0..self.m {
            let (ids, _) = self.cols.seg(k);
            for &i in ids {
                sizes[i] += 1;
            }
        }
        // Split borrows: fill `rows` while reading `cols`.
        let UFactors { rows, cols, .. } = self;
        rows.reset(sizes.iter().copied());
        for k in 0..self.m {
            let (ids, vals) = cols.seg(k);
            for (i, v) in ids.iter().zip(vals) {
                rows.push(*i, k, *v);
            }
        }
    }

    /// Forrest–Tomlin updates applied since the last rebuild.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Total stored entries (U off-diagonals + diagonal + row etas).
    pub fn fill_nnz(&self) -> usize {
        self.nnz + self.m + self.eta_nnz
    }

    /// Measured fill growth since the last rebuild: current entries over
    /// the freshly-factorised baseline. The refactorisation policy keys on
    /// this instead of a fixed update cap.
    pub fn fill_ratio(&self) -> f64 {
        (self.nnz + self.m + self.eta_nnz) as f64 / (self.base_nnz + self.m).max(1) as f64
    }

    /// Solves `(row-eta product) · U x = g` in place: the FTRAN upper
    /// pipeline. `g` is position-indexed; dense fallback.
    pub fn ftran_upper_dense(&self, g: &mut [f64]) {
        for eta in &self.etas {
            let mut acc = 0.0;
            for &(k, v) in &eta.terms {
                acc += v * g[k];
            }
            g[eta.pos] -= acc;
        }
        let mut k = self.tail;
        while k != usize::MAX {
            let t = g[k] / self.diag[k];
            g[k] = t;
            if t != 0.0 {
                let (ids, vals) = self.cols.seg(k);
                for (i, v) in ids.iter().zip(vals) {
                    g[*i] -= v * t;
                }
            }
            k = self.prev[k];
        }
    }

    /// Hyper-sparse FTRAN upper pipeline: row etas over the tracked
    /// pattern, then a `U` solve visiting only the pattern's reach through
    /// the column graph.
    pub fn ftran_upper_sparse(&self, g: &mut IndexedVec, ws: &mut LuWorkspace) {
        debug_assert!(g.is_sparse());
        for eta in &self.etas {
            let mut acc = 0.0;
            for &(k, v) in &eta.terms {
                acc += v * g[k];
            }
            if acc != 0.0 {
                g.set(eta.pos, g[eta.pos] - acc);
            }
        }
        let topo = ws.reach(self.m, g.indices(), |k, child| self.cols.neighbor(k, child));
        g.adopt_pattern(topo);
        for i in (0..ws.topo_len()).rev() {
            let k = ws.topo_at(i);
            let t = g[k] / self.diag[k];
            g.set_tracked(k, t);
            if t != 0.0 {
                let (ids, vals) = self.cols.seg(k);
                for (i2, v) in ids.iter().zip(vals) {
                    g.set_tracked(*i2, g[*i2] - v * t);
                }
            }
        }
    }

    /// Solves `U^T w = c` in place along the current order (no etas).
    fn ut_solve_dense(&self, c: &mut [f64]) {
        let mut k = self.head;
        while k != usize::MAX {
            let mut t = c[k];
            let (ids, vals) = self.cols.seg(k);
            for (i, v) in ids.iter().zip(vals) {
                t -= v * c[*i];
            }
            c[k] = t / self.diag[k];
            k = self.next[k];
        }
    }

    /// Hyper-sparse `U^T w = c` over the pattern's reach through the row
    /// graph (no etas). Shared by BTRAN and the FT elimination solve; the
    /// caller has run [`Self::ensure_rows`].
    fn ut_solve_sparse(&self, c: &mut IndexedVec, ws: &mut LuWorkspace) {
        debug_assert!(self.rows_built);
        debug_assert!(c.is_sparse());
        let topo = ws.reach(self.m, c.indices(), |i, child| self.rows.neighbor(i, child));
        c.adopt_pattern(topo);
        for i in (0..ws.topo_len()).rev() {
            let k = ws.topo_at(i);
            let mut t = c[k];
            let (ids, vals) = self.cols.seg(k);
            for (i2, v) in ids.iter().zip(vals) {
                t -= v * c[*i2];
            }
            c.set_tracked(k, t / self.diag[k]);
        }
    }

    /// The BTRAN upper pipeline: `U^T` solve, then the row etas transposed
    /// in reverse. Dense fallback.
    pub fn btran_upper_dense(&self, c: &mut [f64]) {
        self.ut_solve_dense(c);
        for eta in self.etas.iter().rev() {
            let t = c[eta.pos];
            if t != 0.0 {
                for &(k, v) in &eta.terms {
                    c[k] -= v * t;
                }
            }
        }
    }

    /// Hyper-sparse BTRAN upper pipeline.
    pub fn btran_upper_sparse(
        &mut self,
        c: &mut IndexedVec,
        ws: &mut LuWorkspace,
        scratch: &mut FtScratch,
    ) {
        self.ensure_rows(&mut scratch.sizes);
        self.ut_solve_sparse(c, ws);
        for eta in self.etas.iter().rev() {
            let t = c[eta.pos];
            if t != 0.0 {
                for &(k, v) in &eta.terms {
                    c.set(k, c[k] - v * t);
                }
            }
        }
    }

    /// Applies one Forrest–Tomlin update: position `t` leaves, the column
    /// whose *post-solve* FTRAN image (in position space) is `z` enters.
    /// `z` is the output of the full upper pipeline, so the spike is
    /// recovered as `g = U z` against the current `U` — exactly
    /// `L̃^{-1} P a_q` with every earlier update absorbed.
    ///
    /// On [`FtOutcome::Rejected`] nothing is mutated; the caller keeps the
    /// factors valid by other means (PFI eta) and refactorises soon.
    pub fn ft_update(
        &mut self,
        t: usize,
        z: &IndexedVec,
        ws: &mut LuWorkspace,
        scratch: &mut FtScratch,
    ) -> FtOutcome {
        self.ensure_rows(&mut scratch.sizes);
        // ---- spike g = U z (current U, current order) ----
        let FtScratch { spike, alpha, .. } = scratch;
        spike.reset(self.m);
        z.for_each_nonzero(|k, zv| {
            spike.add(k, zv * self.diag[k]);
            let (ids, vals) = self.cols.seg(k);
            for (i, v) in ids.iter().zip(vals) {
                spike.add(*i, v * zv);
            }
        });

        // ---- eliminate the spiked row: α solves Ũ^T α = r ----
        // r = row t of U. Its support lies strictly "later" in the order,
        // so the plain U^T solve stays inside the trailing block (position
        // t is unreachable through the row graph and its α is zero).
        alpha.reset(self.m);
        {
            let (ids, vals) = self.rows.seg(t);
            for (k, v) in ids.iter().zip(vals) {
                alpha.set(*k, *v);
            }
        }
        if alpha.nnz() > 0 {
            self.ut_solve_sparse(alpha, ws);
        }

        // ---- new diagonal d = g_t − α^T g ----
        let mut d_new = spike[t];
        let mut scale = d_new.abs();
        alpha.for_each_nonzero(|k, av| {
            d_new -= av * spike[k];
            scale = scale.max(spike[k].abs());
        });
        if !d_new.is_finite() || d_new.abs() <= DIAG_REL_TOL * scale.max(1.0) {
            return FtOutcome::Rejected;
        }

        // ---- commit: column/row surgery, eta, order rotation ----
        // Old column t disappears (the leaving variable's column).
        {
            let lo = self.cols.start[t];
            for p in lo..lo + self.cols.len[t] {
                let i = self.cols.idx[p];
                self.rows.remove_entry(i, t);
            }
        }
        self.nnz -= self.cols.len[t];
        self.cols.clear_seg(t);
        // Old row t is eliminated into the eta; its entries leave U.
        {
            let lo = self.rows.start[t];
            for p in lo..lo + self.rows.len[t] {
                let k = self.rows.idx[p];
                self.cols.remove_entry(k, t);
            }
        }
        self.nnz -= self.rows.len[t];
        self.rows.clear_seg(t);
        // The spike becomes the new column t (diagonal d_new).
        spike.for_each_nonzero(|i, gv| {
            if i != t && gv.abs() > SPIKE_DROP_TOL {
                self.cols.push(t, i, gv);
                self.rows.push(i, t, gv);
                self.nnz += 1;
            }
        });
        self.diag[t] = d_new;
        let terms: Vec<(usize, f64)> = {
            let mut v = Vec::new();
            alpha.for_each_nonzero(|k, av| {
                if av.abs() > SPIKE_DROP_TOL {
                    v.push((k, av));
                }
            });
            v
        };
        if !terms.is_empty() {
            self.eta_nnz += terms.len();
            self.etas.push(RowEta { pos: t, terms });
        }
        // Rotate t to the end of the order.
        if self.tail != t {
            let (p, n) = (self.prev[t], self.next[t]);
            if p == usize::MAX {
                self.head = n;
            } else {
                self.next[p] = n;
            }
            self.prev[n] = p; // n != MAX because t != tail
            self.next[self.tail] = t;
            self.prev[t] = self.tail;
            self.next[t] = usize::MAX;
            self.tail = t;
        }
        self.updates += 1;
        FtOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::ColumnStore;

    /// Dense reference: solve `M x = b` by Gaussian elimination with
    /// partial pivoting.
    fn dense_solve(mat: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let m = mat.len();
        let mut a: Vec<Vec<f64>> = (0..m)
            .map(|r| (0..m).map(|c| mat[c][r]).collect())
            .collect(); // row-major from column-major input
        let mut x = b.to_vec();
        for col in 0..m {
            let piv = (col..m)
                .max_by(|&a1, &a2| a[a1][col].abs().partial_cmp(&a[a2][col].abs()).unwrap())
                .unwrap();
            a.swap(col, piv);
            x.swap(col, piv);
            for r in col + 1..m {
                let f = a[r][col] / a[col][col];
                if f != 0.0 {
                    for c in col..m {
                        a[r][c] -= f * a[col][c];
                    }
                    x[r] -= f * x[col];
                }
            }
        }
        for col in (0..m).rev() {
            x[col] /= a[col][col];
            for r in 0..col {
                x[r] -= a[r][col] * x[col];
            }
        }
        x
    }

    /// Builds a small upper-triangular U as (ColumnStore, diag) plus its
    /// dense column-major copy.
    fn small_u() -> (ColumnStore, Vec<f64>, Vec<Vec<f64>>) {
        // U = [2 1 0 3; 0 4 0 1; 0 0 1 2; 0 0 0 5] (column-major below).
        let mut cs = ColumnStore::new();
        cs.seal_column(); // col 0: diag only
        cs.push(0, 1.0);
        cs.seal_column();
        cs.seal_column(); // col 2: diag only
        cs.push(0, 3.0);
        cs.push(1, 1.0);
        cs.push(2, 2.0);
        cs.seal_column();
        let diag = vec![2.0, 4.0, 1.0, 5.0];
        let dense = vec![
            vec![2.0, 0.0, 0.0, 0.0],
            vec![1.0, 4.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
            vec![3.0, 1.0, 2.0, 5.0],
        ];
        (cs, diag, dense)
    }

    #[test]
    fn solves_match_dense_reference() {
        let (cs, diag, dense) = small_u();
        let mut uf = UFactors::new();
        uf.rebuild(&cs, diag);
        let b = [1.0, -2.0, 0.5, 3.0];
        let mut g = b.to_vec();
        uf.ftran_upper_dense(&mut g);
        let want = dense_solve(&dense, &b);
        for (a, w) in g.iter().zip(&want) {
            assert!((a - w).abs() < 1e-12, "{g:?} vs {want:?}");
        }
        // Sparse agrees with dense.
        let mut ws = LuWorkspace::new();
        let mut sc = FtScratch::default();
        let mut sv = IndexedVec::zeros(4);
        for (i, &v) in b.iter().enumerate() {
            sv.set(i, v);
        }
        uf.ftran_upper_sparse(&mut sv, &mut ws);
        for i in 0..4 {
            assert!((sv[i] - want[i]).abs() < 1e-12);
        }
        // Transpose solve: U^T w = c  =>  column_k . w = c_k.
        let c = [2.0, 1.0, -1.0, 0.25];
        let mut w = c.to_vec();
        uf.btran_upper_dense(&mut w);
        for k in 0..4 {
            let dot: f64 = (0..4).map(|r| dense[k][r] * w[r]).sum();
            assert!((dot - c[k]).abs() < 1e-12);
        }
        let mut swv = IndexedVec::zeros(4);
        for (i, &v) in c.iter().enumerate() {
            swv.set(i, v);
        }
        uf.btran_upper_sparse(&mut swv, &mut ws, &mut sc);
        for i in 0..4 {
            assert!((swv[i] - w[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn ft_update_matches_column_replacement() {
        let (cs, diag, mut dense) = small_u();
        let mut uf = UFactors::new();
        uf.rebuild(&cs, diag);
        let mut ws = LuWorkspace::new();
        let mut sc = FtScratch::default();

        // Entering "column" with spike g; its post-solve image z solves
        // U z = g, so feed z through ft_update and compare against dense
        // solves of U-with-column-1-replaced-by-g.
        let g = [1.0, 2.0, 0.0, 4.0];
        let mut z = IndexedVec::zeros(4);
        for (i, &v) in g.iter().enumerate() {
            z.set(i, v);
        }
        uf.ftran_upper_sparse(&mut z, &mut ws); // z = U^{-1} g
        assert_eq!(uf.ft_update(1, &z, &mut ws, &mut sc), FtOutcome::Applied);
        assert_eq!(uf.updates(), 1);

        dense[1] = g.to_vec(); // replace column 1 by the spike
        let b = [0.3, -1.0, 2.0, 0.7];
        let want = dense_solve(&dense, &b);
        let mut got = b.to_vec();
        uf.ftran_upper_dense(&mut got);
        for (a, w) in got.iter().zip(&want) {
            assert!((a - w).abs() < 1e-9, "{got:?} vs {want:?}");
        }
        // Sparse path agrees after the update too.
        let mut sv = IndexedVec::zeros(4);
        for (i, &v) in b.iter().enumerate() {
            sv.set(i, v);
        }
        uf.ftran_upper_sparse(&mut sv, &mut ws);
        for i in 0..4 {
            assert!((sv[i] - want[i]).abs() < 1e-9);
        }
        // BTRAN: (U')^T w = c  =>  column_k . w = c_k for the new matrix.
        let c = [1.0, 0.0, -2.0, 0.5];
        let mut w = c.to_vec();
        uf.btran_upper_dense(&mut w);
        for k in 0..4 {
            let dot: f64 = (0..4).map(|r| dense[k][r] * w[r]).sum();
            assert!((dot - c[k]).abs() < 1e-9, "col {k}");
        }
        let mut swv = IndexedVec::zeros(4);
        for (i, &v) in c.iter().enumerate() {
            swv.set(i, v);
        }
        uf.btran_upper_sparse(&mut swv, &mut ws, &mut sc);
        for i in 0..4 {
            assert!((swv[i] - w[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn chained_updates_stay_consistent() {
        let (cs, diag, mut dense) = small_u();
        let mut uf = UFactors::new();
        uf.rebuild(&cs, diag);
        let mut ws = LuWorkspace::new();
        let mut sc = FtScratch::default();
        let spikes = [
            (2usize, [0.5, 0.0, 3.0, 1.0]),
            (0usize, [1.5, 1.0, 0.0, 0.0]),
            (2usize, [0.0, 2.0, 1.0, 0.5]),
        ];
        for (t, g) in spikes {
            let mut z = IndexedVec::zeros(4);
            for (i, &v) in g.iter().enumerate() {
                if v != 0.0 {
                    z.set(i, v);
                }
            }
            uf.ftran_upper_sparse(&mut z, &mut ws);
            assert_eq!(uf.ft_update(t, &z, &mut ws, &mut sc), FtOutcome::Applied);
            dense[t] = g.to_vec();
            let b = [1.0, 0.5, -0.5, 2.0];
            let want = dense_solve(&dense, &b);
            let mut got = b.to_vec();
            uf.ftran_upper_dense(&mut got);
            for (a, w) in got.iter().zip(&want) {
                assert!((a - w).abs() < 1e-8, "t={t}: {got:?} vs {want:?}");
            }
        }
        assert!(uf.fill_ratio() >= 1.0);
    }

    #[test]
    fn singular_spike_is_rejected() {
        let (cs, diag, _) = small_u();
        let mut uf = UFactors::new();
        uf.rebuild(&cs, diag);
        let mut ws = LuWorkspace::new();
        let mut sc = FtScratch::default();
        // The zero spike: the degenerate extreme, must be refused.
        let z = IndexedVec::zeros(4);
        assert_eq!(uf.ft_update(3, &z, &mut ws, &mut sc), FtOutcome::Rejected);
        assert_eq!(uf.updates(), 0);
    }
}
