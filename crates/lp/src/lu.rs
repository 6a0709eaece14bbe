//! Sparse LU factorisation of a simplex basis.
//!
//! Left-looking (Gilbert–Peierls) factorisation with partial pivoting by
//! magnitude. Columns are processed in a caller-supplied order (the simplex
//! basis sorts columns by sparsity first, a cheap Markowitz approximation).
//!
//! The factorisation computes `P * B' = L * U` where `B'` is the basis matrix
//! with columns permuted by the processing order, `P` is the row permutation
//! chosen by pivoting, `L` is unit lower triangular and `U` upper triangular.
//! Row indices inside `L` columns are kept in *original* row space; `pinv`
//! maps an original row to its pivot position (the row of `L`/`U` it became).

use std::sync::OnceLock;

use crate::sparse::{ColumnStore, IndexedVec};

/// Result of factorising one basis column: either it received pivot `row`,
/// or it was linearly dependent on earlier columns (singular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnOutcome {
    Pivoted { row: usize },
    Singular,
}

/// A sparse LU factorisation with permutation bookkeeping.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// L columns (strictly below-diagonal part, unit diagonal implicit).
    /// Row indices are original rows.
    l: ColumnStore,
    /// U columns; entries are `(pivot_position, value)` with the diagonal
    /// stored separately in `u_diag`.
    u: ColumnStore,
    u_diag: Vec<f64>,
    /// `pinv[original_row] = pivot position`, or `usize::MAX` while unpivoted.
    pinv: Vec<usize>,
    /// `rowof[pivot_position] = original_row` (inverse of `pinv`).
    rowof: Vec<usize>,
    /// Transpose of `L` in *pivot-position* space: column `i` lists
    /// `(k, v)` for every `L` column `k` holding row `rowof[i]`. Built on
    /// the first hyper-sparse `L^T` solve, which needs it for reachability
    /// (many warm node LPs end without one and never build it).
    lt: OnceLock<ColumnStore>,
}

/// Workspace reused across factorisations and triangular solves to avoid
/// per-call allocation (the simplex refactorises frequently).
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// Dense numeric scatter space, original-row indexed.
    x: Vec<f64>,
    /// DFS stack of rows.
    stack: Vec<(usize, usize)>,
    /// Output pattern in topological order.
    topo: Vec<usize>,
    /// Visit marks, epoch-based so clearing is O(1).
    mark: Vec<u64>,
    epoch: u64,
}

impl LuWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, m: usize) {
        if self.x.len() < m {
            self.x.resize(m, 0.0);
            self.mark.resize(m, 0);
        }
        self.epoch += 1;
    }

    #[inline]
    fn visited(&self, r: usize) -> bool {
        self.mark[r] == self.epoch
    }

    #[inline]
    fn visit(&mut self, r: usize) {
        self.mark[r] = self.epoch;
    }

    /// Generic sparse reachability: DFS from `seeds` over the graph given
    /// by `nbr(node, child_index) -> Option<neighbor>`, filling `self.topo`
    /// in post-order. Iterating `topo` in *reverse* yields a topological
    /// order (every edge source before its target), which is exactly the
    /// processing order the hyper-sparse triangular solves need: updaters
    /// run before the entries they update.
    ///
    /// The marks are epoch-based, so the whole call is O(visited edges) —
    /// this is the Gilbert–Peierls symbolic step, shared by factorisation
    /// and the hyper-sparse FTRAN/BTRAN kernels.
    pub(crate) fn reach<F>(&mut self, dim: usize, seeds: &[usize], mut nbr: F) -> &[usize]
    where
        F: FnMut(usize, usize) -> Option<usize>,
    {
        self.prepare(dim);
        self.topo.clear();
        for &s in seeds {
            if self.visited(s) {
                continue;
            }
            self.visit(s);
            self.stack.push((s, 0));
            while let Some((node, mut child)) = self.stack.pop() {
                let mut descended = false;
                while let Some(next) = nbr(node, child) {
                    child += 1;
                    if !self.visited(next) {
                        self.visit(next);
                        self.stack.push((node, child));
                        self.stack.push((next, 0));
                        descended = true;
                        break;
                    }
                }
                if !descended {
                    self.topo.push(node);
                }
            }
        }
        &self.topo
    }

    /// Length of the reach set computed by the last [`Self::reach`] call.
    #[inline]
    pub(crate) fn topo_len(&self) -> usize {
        self.topo.len()
    }

    /// Entry `i` of the last reach set.
    #[inline]
    pub(crate) fn topo_at(&self, i: usize) -> usize {
        self.topo[i]
    }
}

impl LuFactors {
    /// Factorises an `m x m` basis whose `k`-th column (in processing order)
    /// is produced by `column(k, &mut out)` pushing `(row, value)` pairs.
    ///
    /// Columns found to be singular are reported through the returned vector
    /// so the caller can repair the basis (substitute slack columns) and
    /// retry. In a successfully repaired basis every row is pivotal.
    pub fn factorize<F>(m: usize, mut column: F, ws: &mut LuWorkspace) -> (Self, Vec<ColumnOutcome>)
    where
        F: FnMut(usize, &mut Vec<(usize, f64)>),
    {
        let mut lu = LuFactors {
            m,
            l: ColumnStore::with_capacity(m, 4 * m),
            u: ColumnStore::with_capacity(m, 4 * m),
            u_diag: Vec::with_capacity(m),
            pinv: vec![usize::MAX; m],
            rowof: vec![usize::MAX; m],
            lt: OnceLock::new(),
        };
        let mut outcomes = Vec::with_capacity(m);
        let mut col_entries: Vec<(usize, f64)> = Vec::new();
        for k in 0..m {
            col_entries.clear();
            column(k, &mut col_entries);
            let outcome = lu.factorize_column(k, &col_entries, ws);
            outcomes.push(outcome);
        }
        (lu, outcomes)
    }

    /// Processes column `k`: sparse solve `L y = b`, pick pivot, emit L/U.
    fn factorize_column(
        &mut self,
        k: usize,
        b: &[(usize, f64)],
        ws: &mut LuWorkspace,
    ) -> ColumnOutcome {
        ws.prepare(self.m);
        ws.topo.clear();
        // Symbolic: find the pattern of y = L^{-1} b by DFS through pivoted
        // columns of L, producing topological order.
        for &(r, _) in b {
            if !ws.visited(r) {
                self.dfs(r, ws);
            }
        }
        // Numeric scatter of b.
        for &idx in &ws.topo {
            ws.x[idx] = 0.0;
        }
        for &(r, v) in b {
            ws.x[r] = v;
        }
        // Numeric elimination in topological order (reverse of the stack
        // emission order: `topo` is built so that dependencies come first).
        for i in (0..ws.topo.len()).rev() {
            let r = ws.topo[i];
            let piv = self.pinv[r];
            if piv == usize::MAX {
                continue; // not yet pivotal: below the "diagonal", no elimination
            }
            let xr = ws.x[r];
            if xr == 0.0 {
                continue;
            }
            let lo = self.l.col_iter(piv);
            for (lr, lv) in lo {
                ws.x[lr] -= lv * xr;
            }
        }
        // Pivot: the largest magnitude among unpivoted rows.
        let mut pivot_row = usize::MAX;
        let mut pivot_val = 0.0f64;
        for i in (0..ws.topo.len()).rev() {
            let r = ws.topo[i];
            if self.pinv[r] == usize::MAX {
                let v = ws.x[r];
                if v.abs() > pivot_val.abs() {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
        }
        const PIVOT_TOL: f64 = 1e-11;
        if pivot_row == usize::MAX || pivot_val.abs() <= PIVOT_TOL {
            // Dependent column: emit empty L/U columns with unit diagonal so
            // positions stay aligned; caller must repair.
            self.l.seal_column();
            self.u.seal_column();
            self.u_diag.push(1.0);
            return ColumnOutcome::Singular;
        }
        // Emit U column (entries on already-pivoted rows) and L column
        // (remaining unpivoted rows scaled by the pivot).
        for i in (0..ws.topo.len()).rev() {
            let r = ws.topo[i];
            let v = ws.x[r];
            if v == 0.0 {
                continue;
            }
            let piv = self.pinv[r];
            if piv != usize::MAX {
                self.u.push(piv, v);
            } else if r != pivot_row {
                self.l.push(r, v / pivot_val);
            }
        }
        self.l.seal_column();
        self.u.seal_column();
        self.u_diag.push(pivot_val);
        self.pinv[pivot_row] = k;
        self.rowof[k] = pivot_row;
        ColumnOutcome::Pivoted { row: pivot_row }
    }

    /// Iterative DFS from row `r` through pivoted L columns; appends rows to
    /// `ws.topo` in post-order (so reverse iteration is topological).
    fn dfs(&self, root: usize, ws: &mut LuWorkspace) {
        ws.visit(root);
        ws.stack.push((root, 0));
        while let Some((r, mut child)) = ws.stack.pop() {
            let piv = self.pinv[r];
            let mut descended = false;
            if piv != usize::MAX {
                let lo = self.l.col_iter(piv).skip(child);
                for (lr, _) in lo {
                    child += 1;
                    if !ws.visited(lr) {
                        ws.visit(lr);
                        ws.stack.push((r, child));
                        ws.stack.push((lr, 0));
                        descended = true;
                        break;
                    }
                }
            }
            if !descended {
                ws.topo.push(r);
            }
        }
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Total entries in L + U (diagnostics / refactorisation policy).
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz() + self.u_diag.len()
    }

    /// Maps original row -> pivot position.
    pub fn pinv(&self) -> &[usize] {
        &self.pinv
    }

    /// Maps pivot position -> original row.
    pub fn rowof(&self) -> &[usize] {
        &self.rowof
    }

    /// The pivot-position-space transpose of `L` (see the `lt` field).
    fn transpose(&self) -> ColumnStore {
        let mut counts = vec![0usize; self.m + 1];
        for k in 0..self.m {
            for (r, _) in self.l.col_iter(k) {
                counts[self.pinv[r] + 1] += 1;
            }
        }
        for i in 0..self.m {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts[..self.m].to_vec();
        let nnz = counts[self.m];
        let mut idx = vec![0usize; nnz];
        let mut val = vec![0f64; nnz];
        for k in 0..self.m {
            for (r, v) in self.l.col_iter(k) {
                let slot = cursor[self.pinv[r]];
                idx[slot] = k;
                val[slot] = v;
                cursor[self.pinv[r]] += 1;
            }
        }
        ColumnStore::from_parts(counts, idx, val)
    }

    /// Moves the `U` factor out (for the dynamic Forrest–Tomlin engine),
    /// leaving this struct as an L-only solver. [`Self::ftran`] /
    /// [`Self::btran`] must not be called afterwards.
    pub fn take_u(&mut self) -> (ColumnStore, Vec<f64>) {
        (
            std::mem::replace(&mut self.u, ColumnStore::new()),
            std::mem::take(&mut self.u_diag),
        )
    }

    /// Entry count of the `L` factor alone (excluding the unit diagonal).
    pub fn l_nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Dense forward solve `L g = P b` in place: `b` is original-row
    /// indexed on entry and exit (the permutation to pivot-position space
    /// is the caller's job — `g[k]` lives at `b[rowof[k]]`).
    pub fn l_solve_dense(&self, b: &mut [f64]) {
        for k in 0..self.m {
            let t = b[self.rowof[k]];
            if t != 0.0 {
                for (r, v) in self.l.col_iter(k) {
                    b[r] -= v * t;
                }
            }
        }
    }

    /// Hyper-sparse forward solve `L g = P b`: visits only the rows
    /// reachable from `b`'s pattern through `L` (Gilbert–Peierls DFS).
    /// `b` stays original-row indexed; its pattern is replaced by the
    /// reach set.
    pub fn l_solve_sparse(&self, b: &mut IndexedVec, ws: &mut LuWorkspace) {
        debug_assert!(b.is_sparse());
        ws.reach(self.m, b.indices(), |r, child| {
            let piv = self.pinv[r];
            if piv == usize::MAX {
                None
            } else {
                self.l.col(piv).0.get(child).copied()
            }
        });
        b.adopt_pattern(&ws.topo);
        for i in (0..ws.topo.len()).rev() {
            let r = ws.topo[i];
            let piv = self.pinv[r];
            if piv == usize::MAX {
                continue;
            }
            let xr = b[r];
            if xr == 0.0 {
                continue;
            }
            let (rows, vals) = self.l.col(piv);
            for (lr, lv) in rows.iter().zip(vals) {
                b.set_tracked(*lr, b[*lr] - lv * xr);
            }
        }
    }

    /// Dense backward solve `L^T q = w`, mapping pivot-position space to
    /// original-row space: `c` is position-indexed on entry, `out` must be
    /// zeroed and receives the row-indexed result.
    pub fn lt_solve_dense(&self, c: &[f64], out: &mut [f64]) {
        for k in (0..self.m).rev() {
            let mut t = c[k];
            for (r, v) in self.l.col_iter(k) {
                t -= v * out[r];
            }
            out[self.rowof[k]] = t;
        }
    }

    /// Hyper-sparse backward solve `L^T q = w`: `c` is position-indexed,
    /// `out` (zeroed, row-indexed) receives the result over the reach set
    /// only.
    pub fn lt_solve_sparse(&self, c: &IndexedVec, out: &mut IndexedVec, ws: &mut LuWorkspace) {
        debug_assert!(c.is_sparse());
        let lt = self.lt.get_or_init(|| self.transpose());
        ws.reach(self.m, c.indices(), |i, child| {
            lt.col(i).0.get(child).copied()
        });
        for i in (0..ws.topo.len()).rev() {
            let k = ws.topo[i];
            let mut t = c[k];
            let (rows, vals) = self.l.col(k);
            for (r, v) in rows.iter().zip(vals) {
                t -= v * out[*r];
            }
            out.set(self.rowof[k], t);
        }
    }

    /// Solves `B' z = b` in place, where `b` is original-row indexed on
    /// entry and `z` is *column-position* indexed on exit: `z[k]` is the
    /// multiplier of the `k`-th processed column.
    ///
    /// `scratch` must be a zeroed dense vector of length `m`; it is returned
    /// zeroed.
    pub fn ftran(&self, b: &mut [f64], scratch: &mut [f64]) {
        debug_assert_eq!(b.len(), self.m);
        // Forward: L g = P b, working in original-row space.
        for k in 0..self.m {
            let t = b[self.rowof[k]];
            if t != 0.0 {
                for (r, v) in self.l.col_iter(k) {
                    b[r] -= v * t;
                }
            }
        }
        // Backward: U z = g; z in pivot-position space via scratch.
        for k in (0..self.m).rev() {
            let t = b[self.rowof[k]] / self.u_diag[k];
            scratch[k] = t;
            if t != 0.0 {
                for (i, v) in self.u.col_iter(k) {
                    b[self.rowof[i]] -= v * t;
                }
            }
        }
        // Copy back: b[k] = z[k] (position space) and zero the scratch.
        for k in 0..self.m {
            b[k] = scratch[k];
            scratch[k] = 0.0;
        }
    }

    /// Solves `B'^T q = c` in place, where `c` is column-position indexed on
    /// entry (`c[k]` pairs with the `k`-th processed column) and the result
    /// is original-row indexed on exit (dual values per constraint row).
    ///
    /// `scratch` must be a zeroed dense vector of length `m`; it is returned
    /// zeroed.
    pub fn btran(&self, c: &mut [f64], scratch: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        // Forward: U^T w = c' in pivot-position space.
        // w[k] = (c'[k] - sum_{i<k} U[i,k] * w[i]) / U[k,k]
        for k in 0..self.m {
            let mut t = c[k];
            for (i, v) in self.u.col_iter(k) {
                t -= v * c[i];
            }
            c[k] = t / self.u_diag[k];
        }
        // Backward: L^T q = w. q[k] = w[k] - sum_{(r,v) in Lcol k} v * q[pinv[r]].
        // Store q in original-row space via scratch.
        for k in (0..self.m).rev() {
            let mut t = c[k];
            for (r, v) in self.l.col_iter(k) {
                t -= v * scratch[r];
            }
            scratch[self.rowof[k]] = t;
        }
        for r in 0..self.m {
            c[r] = scratch[r];
            scratch[r] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factorise a dense matrix given column-major, solve, and compare.
    fn factorize_dense(a: &[Vec<f64>]) -> (LuFactors, Vec<ColumnOutcome>) {
        let m = a.len();
        let mut ws = LuWorkspace::new();
        LuFactors::factorize(
            m,
            |k, out| {
                for (r, &v) in a[k].iter().enumerate() {
                    if v != 0.0 {
                        out.push((r, v));
                    }
                }
            },
            &mut ws,
        )
    }

    fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = a.len();
        let mut y = vec![0.0; m];
        for (k, col) in a.iter().enumerate() {
            for r in 0..m {
                y[r] += col[r] * x[k];
            }
        }
        y
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_solve() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let (lu, out) = factorize_dense(&a);
        assert!(out
            .iter()
            .all(|o| matches!(o, ColumnOutcome::Pivoted { .. })));
        let mut b = vec![3.0, -4.0];
        let mut s = vec![0.0; 2];
        lu.ftran(&mut b, &mut s);
        assert_close(&b, &[3.0, -4.0]);
    }

    #[test]
    fn ftran_general_3x3() {
        // Columns of B
        let a = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 0.0, 4.0],
        ];
        let (lu, out) = factorize_dense(&a);
        assert!(out
            .iter()
            .all(|o| matches!(o, ColumnOutcome::Pivoted { .. })));
        // Solve B z = b then check B z == b (z in column space = original
        // column order here since we processed in order 0,1,2).
        let b = vec![5.0, -1.0, 2.5];
        let mut rhs = b.clone();
        let mut s = vec![0.0; 3];
        lu.ftran(&mut rhs, &mut s);
        let back = mat_vec(&a, &rhs);
        assert_close(&back, &b);
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn btran_general_3x3() {
        let a = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 0.0, 4.0],
        ];
        let (lu, _) = factorize_dense(&a);
        // Solve B^T y = c; check c[k] == column_k . y.
        let c = vec![1.0, 2.0, 3.0];
        let mut rhs = c.clone();
        let mut s = vec![0.0; 3];
        lu.btran(&mut rhs, &mut s);
        for k in 0..3 {
            let dot: f64 = (0..3).map(|r| a[k][r] * rhs[r]).sum();
            assert!((dot - c[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn requires_pivoting_matrix() {
        // First column has zero on the diagonal; pivoting must pick row 1.
        let a = vec![vec![0.0, 5.0], vec![1.0, 1.0]];
        let (lu, out) = factorize_dense(&a);
        assert!(out
            .iter()
            .all(|o| matches!(o, ColumnOutcome::Pivoted { .. })));
        let b = vec![2.0, 7.0];
        let mut rhs = b.clone();
        let mut s = vec![0.0; 2];
        lu.ftran(&mut rhs, &mut s);
        let back = mat_vec(&a, &rhs);
        assert_close(&back, &b);
    }

    #[test]
    fn detects_singularity() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]]; // rank 1
        let (_, out) = factorize_dense(&a);
        assert_eq!(out[0], ColumnOutcome::Pivoted { row: 1 }); // |2| > |1|
        assert_eq!(out[1], ColumnOutcome::Singular);
    }

    #[test]
    fn random_roundtrip_many_sizes() {
        // Deterministic pseudo-random dense matrices; diagonally dominated so
        // they are comfortably nonsingular.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for m in [1usize, 2, 5, 13, 40] {
            let mut a = vec![vec![0.0; m]; m];
            for (k, col) in a.iter_mut().enumerate() {
                for slot in col.iter_mut() {
                    let v = next();
                    *slot = if v.abs() < 0.4 { 0.0 } else { v };
                }
                col[k] += 3.0 + m as f64; // diagonal dominance
            }
            let (lu, out) = factorize_dense(&a);
            assert!(
                out.iter()
                    .all(|o| matches!(o, ColumnOutcome::Pivoted { .. })),
                "m={m}"
            );
            let b: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
            let mut rhs = b.clone();
            let mut s = vec![0.0; m];
            lu.ftran(&mut rhs, &mut s);
            let back = mat_vec(&a, &rhs);
            for (x, y) in back.iter().zip(&b) {
                assert!((x - y).abs() < 1e-8, "m={m}");
            }
            // btran consistency
            let c: Vec<f64> = (0..m).map(|i| 0.25 * i as f64 + 1.0).collect();
            let mut yv = c.clone();
            lu.btran(&mut yv, &mut s);
            for k in 0..m {
                let dot: f64 = (0..m).map(|r| a[k][r] * yv[r]).sum();
                assert!((dot - c[k]).abs() < 1e-8, "m={m} k={k}");
            }
        }
    }
}
