//! Compressed sparse column (CSC) matrices and triplet builders.
//!
//! The LP solver stores the structural constraint matrix in CSC form because
//! the revised simplex method works column-wise: pricing iterates columns,
//! and FTRAN needs fast access to the entering column.

/// A coordinate-form matrix entry used while assembling a matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    pub row: usize,
    pub col: usize,
    pub value: f64,
}

/// An immutable sparse matrix in compressed sparse column form.
///
/// Invariants: `col_ptr.len() == ncols + 1`, `col_ptr` is non-decreasing,
/// row indices within a column are strictly increasing, and no explicit
/// zeros are stored.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from triplets. Duplicate `(row, col)` entries are
    /// summed; entries that sum to exactly zero are dropped.
    ///
    /// # Panics
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[Triplet]) -> Self {
        for t in triplets {
            assert!(t.row < nrows, "triplet row {} out of bounds {nrows}", t.row);
            assert!(t.col < ncols, "triplet col {} out of bounds {ncols}", t.col);
        }
        // Count entries per column, then bucket-sort triplets into columns.
        let mut counts = vec![0usize; ncols + 1];
        for t in triplets {
            counts[t.col + 1] += 1;
        }
        for c in 0..ncols {
            counts[c + 1] += counts[c];
        }
        let mut order = counts.clone();
        let mut rows = vec![0usize; triplets.len()];
        let mut vals = vec![0f64; triplets.len()];
        for t in triplets {
            let slot = order[t.col];
            rows[slot] = t.row;
            vals[slot] = t.value;
            order[t.col] += 1;
        }
        // Sort each column by row and merge duplicates.
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut out_rows = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for c in 0..ncols {
            scratch.clear();
            for k in counts[c]..order[c] {
                scratch.push((rows[k], vals[k]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == r {
                    v += scratch[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    out_rows.push(r);
                    out_vals.push(v);
                }
                i = j;
            }
            col_ptr[c + 1] = out_rows.len();
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx: out_rows,
            values: out_vals,
        }
    }

    /// An `nrows x ncols` matrix with no entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates `(row, value)` pairs of column `c` in increasing row order.
    #[inline]
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of entries in column `c`.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// Computes `y += alpha * A[:, c]` into a dense vector.
    #[inline]
    pub fn axpy_col(&self, c: usize, alpha: f64, y: &mut [f64]) {
        for (r, v) in self.col_iter(c) {
            y[r] += alpha * v;
        }
    }

    /// Computes the dot product `A[:, c] . y` against a dense vector.
    #[inline]
    pub fn dot_col(&self, c: usize, y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.col_iter(c) {
            acc += v * y[r];
        }
        acc
    }

    /// Dense `A * x` (mainly for tests and activity computation).
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for c in 0..self.ncols {
            if x[c] != 0.0 {
                self.axpy_col(c, x[c], &mut y);
            }
        }
        y
    }

    /// Returns the value at `(row, col)`, or 0 if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.col_iter(col)
            .find(|&(r, _)| r == row)
            .map_or(0.0, |(_, v)| v)
    }

    /// Appends rows to the matrix: grows `nrows` to `new_nrows` and inserts
    /// the given entries, all of which must lie in the appended row range.
    /// Because the new rows sit strictly below every existing one, each
    /// column's sorted order is preserved by appending at the column tail —
    /// one linear re-pack instead of a full triplet sort. Duplicate
    /// `(row, col)` entries are summed; zero sums are dropped (matching
    /// [`Self::from_triplets`]).
    ///
    /// # Panics
    /// Panics if `new_nrows < nrows`, an entry's row is outside
    /// `nrows..new_nrows`, or a column index is out of bounds.
    pub fn append_rows(&mut self, new_nrows: usize, triplets: &[Triplet]) {
        assert!(new_nrows >= self.nrows, "rows can only grow");
        for t in triplets {
            assert!(
                t.row >= self.nrows && t.row < new_nrows,
                "appended entry row {} outside {}..{new_nrows}",
                t.row,
                self.nrows
            );
            assert!(t.col < self.ncols, "col {} out of bounds", t.col);
        }
        let mut add: Vec<Triplet> = triplets.to_vec();
        add.sort_unstable_by_key(|t| (t.col, t.row));
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut rows = Vec::with_capacity(self.nnz() + add.len());
        let mut vals = Vec::with_capacity(self.nnz() + add.len());
        let mut k = 0usize;
        for c in 0..self.ncols {
            let lo = self.col_ptr[c];
            let hi = self.col_ptr[c + 1];
            rows.extend_from_slice(&self.row_idx[lo..hi]);
            vals.extend_from_slice(&self.values[lo..hi]);
            while k < add.len() && add[k].col == c {
                let r = add[k].row;
                let mut v = add[k].value;
                k += 1;
                while k < add.len() && add[k].col == c && add[k].row == r {
                    v += add[k].value;
                    k += 1;
                }
                if v != 0.0 {
                    rows.push(r);
                    vals.push(v);
                }
            }
            col_ptr[c + 1] = rows.len();
        }
        self.nrows = new_nrows;
        self.col_ptr = col_ptr;
        self.row_idx = rows;
        self.values = vals;
    }
}

/// A dense-backed vector with an explicit nonzero index list — the working
/// currency of the hyper-sparse solve path.
///
/// The value array is always dense (random-access reads cost O(1), exactly
/// like a `Vec<f64>`), but as long as the vector is in *sparse mode* the
/// `nz` list names every index that may hold a nonzero, so clearing,
/// iterating and scattering cost O(nnz) instead of O(len). Membership of
/// `nz` is tracked with epoch marks, making [`Self::clear`] O(nnz) and
/// duplicate-free insertion O(1).
///
/// Sparse mode is advisory: [`Self::make_dense`] drops the index list (for
/// inputs whose support is unknown or too dense to be worth tracking) and
/// every consumer falls back to full scans. `nz` may name indices whose
/// value cancelled to exactly zero — consumers must treat it as a pattern
/// *superset*, never as a nonzero certificate.
#[derive(Debug, Clone, Default)]
pub struct IndexedVec {
    vals: Vec<f64>,
    nz: Vec<usize>,
    mark: Vec<u64>,
    epoch: u64,
    sparse: bool,
}

impl IndexedVec {
    /// An all-zero sparse-mode vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        IndexedVec {
            vals: vec![0.0; n],
            nz: Vec::new(),
            mark: vec![0; n],
            epoch: 1,
            sparse: true,
        }
    }

    /// Resizes to length `n` (zero-filling) and clears to sparse mode.
    pub fn reset(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, 0.0);
            self.mark.resize(n, 0);
        }
        self.clear();
        if self.vals.len() > n {
            // Shrink logically: anything beyond n is already zero after
            // `clear`, and consumers only index `0..n`.
            self.vals.truncate(n);
            self.mark.truncate(n);
        }
        self.sparse = true;
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Whether the nonzero list is valid (sparse mode).
    #[inline]
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Number of tracked indices (meaningful only in sparse mode; an upper
    /// bound on the true nonzero count).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nz.len()
    }

    /// The tracked index list (pattern superset; sparse mode only).
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.nz
    }

    /// Dense read-only view — valid in both modes.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.vals
    }

    /// Dense mutable view. Writing through this in sparse mode silently
    /// invalidates the pattern — call [`Self::make_dense`] first unless
    /// every touched index is already tracked.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.vals[i]
    }

    /// Zeroes the vector: O(nnz) in sparse mode, O(len) in dense mode.
    /// Always restores sparse mode.
    pub fn clear(&mut self) {
        if self.sparse {
            for &i in &self.nz {
                self.vals[i] = 0.0;
            }
            self.nz.clear();
        } else {
            self.vals.iter_mut().for_each(|v| *v = 0.0);
            self.nz.clear();
        }
        self.epoch += 1;
        self.sparse = true;
    }

    /// Adds `v` to entry `i`, registering `i` in the pattern.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        if self.sparse && self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.nz.push(i);
        }
        self.vals[i] += v;
    }

    /// Sets entry `i` to `v`, registering `i` in the pattern.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        if self.sparse && self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.nz.push(i);
        }
        self.vals[i] = v;
    }

    /// Registers `i` in the pattern without touching the value.
    #[inline]
    pub fn touch(&mut self, i: usize) {
        if self.sparse && self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.nz.push(i);
        }
    }

    /// Overwrites the value of an index already known to be tracked (or in
    /// dense mode). Cheaper than [`Self::set`] inside kernels that walk the
    /// pattern they already own.
    #[inline]
    pub fn set_tracked(&mut self, i: usize, v: f64) {
        debug_assert!(!self.sparse || self.mark[i] == self.epoch);
        self.vals[i] = v;
    }

    /// Sorts the tracked pattern ascending. Consumers whose tie-breaking
    /// depends on scan order (the primal ratio tests) call this so a
    /// pattern left in DFS order by the solve kernels behaves exactly
    /// like a full ascending scan.
    pub fn sort_pattern(&mut self) {
        self.nz.sort_unstable();
    }

    /// Drops the index list: the vector is now treated as fully dense.
    pub fn make_dense(&mut self) {
        self.sparse = false;
        self.nz.clear();
    }

    /// Replaces the pattern wholesale with `pattern` (the values must
    /// already be consistent — used by solve kernels whose reachability
    /// pass computed the result pattern externally).
    pub fn adopt_pattern(&mut self, pattern: &[usize]) {
        self.epoch += 1;
        self.nz.clear();
        for &i in pattern {
            if self.mark[i] != self.epoch {
                self.mark[i] = self.epoch;
                self.nz.push(i);
            }
        }
        self.sparse = true;
    }

    /// Calls `f(index, value)` for every (possibly) nonzero entry: the
    /// tracked pattern in sparse mode, every nonzero in dense mode.
    #[inline]
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, f64)) {
        if self.sparse {
            for &i in &self.nz {
                let v = self.vals[i];
                if v != 0.0 {
                    f(i, v);
                }
            }
        } else {
            for (i, &v) in self.vals.iter().enumerate() {
                if v != 0.0 {
                    f(i, v);
                }
            }
        }
    }

    /// True nonzero count (scans the pattern / the dense array).
    pub fn count_nonzeros(&self) -> usize {
        let mut c = 0;
        self.for_each_nonzero(|_, _| c += 1);
        c
    }
}

impl std::ops::Index<usize> for IndexedVec {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.vals[i]
    }
}

/// A set of indices `0..len` as a bitset: O(1) updates, and an ascending
/// walk that reads `len / 64` words plus one step per member — the simplex
/// keeps sets of basis positions in these and walks them where it used to
/// scan every position, meeting the members in the same order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PosSet {
    words: Vec<u64>,
}

impl PosSet {
    /// Makes the set exactly `{ i < len : member(i) }`, a word at a time.
    pub(crate) fn rebuild(&mut self, len: usize, mut member: impl FnMut(usize) -> bool) {
        self.words.clear();
        self.words.extend((0..len.div_ceil(64)).map(|k| {
            let lo = 64 * k;
            (lo..len.min(lo + 64)).fold(0u64, |word, i| word | (u64::from(member(i)) << (i - lo)))
        }));
    }

    /// Puts `i` in the set (`member`) or takes it out.
    #[inline]
    pub(crate) fn assign(&mut self, i: usize, member: bool) {
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if member {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The smallest member at or after `i`.
    pub(crate) fn next_from(&self, i: usize) -> Option<usize> {
        let mut k = i / 64;
        let mut word = self.words.get(k)? & (!0u64 << (i % 64));
        loop {
            if word != 0 {
                return Some(64 * k + word.trailing_zeros() as usize);
            }
            k += 1;
            word = *self.words.get(k)?;
        }
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * k + bit
                })
            })
        })
    }
}

/// Row-major mirror of a [`CscMatrix`] (CSR), giving fast row access for
/// algorithms the column-major layout cannot serve — the dual simplex's
/// pivot-row computation. Built once per matrix and cached (see
/// `Problem::row_major`); any row/column mutation must discard it.
#[derive(Debug, Clone)]
pub struct RowMajor {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl RowMajor {
    /// Transposes the column-major storage in two counting passes.
    pub fn build(a: &CscMatrix) -> Self {
        let m = a.nrows();
        let mut counts = vec![0usize; m + 1];
        for c in 0..a.ncols() {
            for (r, _) in a.col_iter(c) {
                counts[r + 1] += 1;
            }
        }
        for i in 0..m {
            counts[i + 1] += counts[i];
        }
        let nnz = counts[m];
        let mut cursor = counts.clone();
        let mut col = vec![0usize; nnz];
        let mut val = vec![0f64; nnz];
        for c in 0..a.ncols() {
            for (r, v) in a.col_iter(c) {
                let slot = cursor[r];
                col[slot] = c;
                val[slot] = v;
                cursor[r] += 1;
            }
        }
        RowMajor {
            row_ptr: counts,
            col,
            val,
        }
    }

    /// Iterates `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col[lo..hi]
            .iter()
            .copied()
            .zip(self.val[lo..hi].iter().copied())
    }

    /// Scatters a simplex **pivot row** `alpha = rho' [A | -I]` over all
    /// `n + m` global columns, where `rho` is the BTRAN image of a basis
    /// unit row (`rho = B^-T e_r`) and column `n + i` is the slack of row
    /// `i` (single entry `(i, -1)`).
    ///
    /// `alpha` must be zeroed for every index in `touched` on entry (the
    /// call drains `touched` and re-zeroes them itself, so reusing the same
    /// pair of buffers across calls is the intended pattern). On return
    /// `touched` lists every column with a (possibly cancelled-to-zero)
    /// contribution.
    ///
    /// Entries of `rho` with magnitude at most `drop_tol` are skipped for
    /// sparsity; returns `true` if any *nonzero* entry was dropped that
    /// way. Callers that want to treat an empty pivot row as a proof (the
    /// dual simplex's infeasibility certificate) must fall back when this
    /// is set — a dropped entry means columns may be missing from
    /// `touched`.
    ///
    /// `rho` arrives as an [`IndexedVec`] so a hyper-sparse BTRAN image is
    /// scattered in O(nnz(rho) * row nnz) — only dense-mode images pay the
    /// full `m`-row scan.
    pub fn scatter_pivot_row(
        &self,
        rho: &IndexedVec,
        n_structurals: usize,
        drop_tol: f64,
        alpha: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> bool {
        for j in touched.drain(..) {
            alpha[j] = 0.0;
        }
        let mut dropped = false;
        rho.for_each_nonzero(|i, rv| {
            if rv.abs() <= drop_tol {
                dropped = true;
                return;
            }
            for (jcol, av) in self.row_iter(i) {
                if alpha[jcol] == 0.0 {
                    touched.push(jcol);
                }
                alpha[jcol] += rv * av;
            }
            // Slack column n + i is the single entry (i, -1).
            if alpha[n_structurals + i] == 0.0 {
                touched.push(n_structurals + i);
            }
            alpha[n_structurals + i] -= rv;
        });
        // A column whose partial sums cancel to exactly 0.0 mid-scatter can
        // be pushed twice (the `== 0.0` membership test is fooled); dedup so
        // callers may fold over `touched` without double-counting. Sorting
        // also makes the iteration order deterministic.
        touched.sort_unstable();
        touched.dedup();
        dropped
    }
}

/// A growable sparse column collection used to accumulate L and U factors.
///
/// Unlike [`CscMatrix`] this supports appending whole columns in order, which
/// is exactly the access pattern of left-looking LU factorisation.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl ColumnStore {
    pub fn new() -> Self {
        ColumnStore {
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Assembles a store from raw CSC arrays (`col_ptr.len() == ncols + 1`,
    /// non-decreasing). Used by transpose builders that compute the layout
    /// with counting sort.
    pub fn from_parts(col_ptr: Vec<usize>, row_idx: Vec<usize>, values: Vec<f64>) -> Self {
        debug_assert!(!col_ptr.is_empty());
        debug_assert_eq!(col_ptr.last().copied(), Some(row_idx.len()));
        debug_assert_eq!(row_idx.len(), values.len());
        ColumnStore {
            col_ptr,
            row_idx,
            values,
        }
    }

    pub fn with_capacity(cols: usize, nnz: usize) -> Self {
        let mut col_ptr = Vec::with_capacity(cols + 1);
        col_ptr.push(0);
        ColumnStore {
            col_ptr,
            row_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Appends one entry to the column currently being built.
    #[inline]
    pub fn push(&mut self, row: usize, value: f64) {
        self.row_idx.push(row);
        self.values.push(value);
    }

    /// Finishes the current column.
    #[inline]
    pub fn seal_column(&mut self) {
        self.col_ptr.push(self.row_idx.len());
    }

    #[inline]
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Direct slice view of column `c` (indices, values) — the random
    /// access the hyper-sparse DFS needs to resume a half-visited column.
    #[inline]
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of entries in column `c`.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    pub fn clear(&mut self) {
        self.col_ptr.clear();
        self.col_ptr.push(0);
        self.row_idx.clear();
        self.values.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(row: usize, col: usize, value: f64) -> Triplet {
        Triplet { row, col, value }
    }

    #[test]
    fn builds_from_triplets_sorted_and_merged() {
        let m = CscMatrix::from_triplets(
            3,
            3,
            &[
                t(2, 0, 3.0),
                t(0, 0, 1.0),
                t(0, 0, 0.5), // duplicate, should merge to 1.5
                t(1, 2, -2.0),
            ],
        );
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(2, 0), 3.0);
        assert_eq!(m.get(1, 2), -2.0);
        assert_eq!(m.get(1, 1), 0.0);
        let col0: Vec<_> = m.col_iter(0).collect();
        assert_eq!(col0, vec![(0, 1.5), (2, 3.0)]);
    }

    #[test]
    fn drops_entries_that_cancel() {
        let m = CscMatrix::from_triplets(2, 2, &[t(0, 0, 2.0), t(0, 0, -2.0), t(1, 1, 1.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn empty_matrix() {
        let m = CscMatrix::zeros(4, 5);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_iter(3).count(), 0);
    }

    #[test]
    fn mul_dense_matches_manual() {
        // [1 0 2]
        // [0 3 0]
        let m = CscMatrix::from_triplets(2, 3, &[t(0, 0, 1.0), t(1, 1, 3.0), t(0, 2, 2.0)]);
        let y = m.mul_dense(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn dot_and_axpy_agree() {
        let m = CscMatrix::from_triplets(3, 1, &[t(0, 0, 1.0), t(2, 0, -4.0)]);
        let y = [2.0, 5.0, 0.5];
        assert_eq!(m.dot_col(0, &y), 2.0 - 2.0);
        let mut acc = vec![0.0; 3];
        m.axpy_col(0, 2.0, &mut acc);
        assert_eq!(acc, vec![2.0, 0.0, -8.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds() {
        CscMatrix::from_triplets(1, 1, &[t(1, 0, 1.0)]);
    }

    #[test]
    fn pivot_row_scatter_matches_dense_product() {
        // [1 0 2]
        // [0 3 0]
        let a = CscMatrix::from_triplets(2, 3, &[t(0, 0, 1.0), t(1, 1, 3.0), t(0, 2, 2.0)]);
        let mirror = RowMajor::build(&a);
        let mut rho = IndexedVec::zeros(2);
        rho.set(0, 2.0);
        rho.set(1, -1.0);
        let mut alpha = vec![0.0; 3 + 2];
        let mut touched = vec![0usize]; // stale entry from a "previous" call
        alpha[0] = 7.0; // must be re-zeroed via the drained touched list
        let dropped = mirror.scatter_pivot_row(&rho, 3, 1e-12, &mut alpha, &mut touched);
        assert!(!dropped);
        // alpha = rho' [A | -I]
        assert_eq!(&alpha, &[2.0, -3.0, 4.0, -2.0, 1.0]);
        let mut sorted = touched.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, touched, "touched must be sorted and deduped");
        assert_eq!(touched, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pivot_row_reports_dropped_noise() {
        let a = CscMatrix::from_triplets(1, 1, &[t(0, 0, 1.0)]);
        let mirror = RowMajor::build(&a);
        let mut alpha = vec![0.0; 2];
        let mut touched = Vec::new();
        let mut rho = IndexedVec::zeros(1);
        rho.set(0, 1e-15);
        let dropped = mirror.scatter_pivot_row(&rho, 1, 1e-12, &mut alpha, &mut touched);
        assert!(dropped);
        assert!(touched.is_empty());
    }

    #[test]
    fn indexed_vec_tracks_pattern() {
        let mut v = IndexedVec::zeros(5);
        assert!(v.is_sparse());
        v.add(3, 1.5);
        v.add(1, -2.0);
        v.add(3, 0.5); // duplicate index: pattern entry stays unique
        assert_eq!(v.nnz(), 2);
        assert_eq!(v[3], 2.0);
        assert_eq!(v[1], -2.0);
        let mut seen = Vec::new();
        v.for_each_nonzero(|i, x| seen.push((i, x)));
        seen.sort_by_key(|&(i, _)| i);
        assert_eq!(seen, vec![(1, -2.0), (3, 2.0)]);
        v.clear();
        assert_eq!(v.nnz(), 0);
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
        // Dense mode: values stay readable, iteration covers everything.
        v.set(2, 4.0);
        v.make_dense();
        assert!(!v.is_sparse());
        let mut seen = Vec::new();
        v.for_each_nonzero(|i, x| seen.push((i, x)));
        assert_eq!(seen, vec![(2, 4.0)]);
        v.clear(); // O(len) in dense mode, restores sparse mode
        assert!(v.is_sparse());
        assert_eq!(v.count_nonzeros(), 0);
    }

    #[test]
    fn indexed_vec_adopt_pattern_dedups() {
        let mut v = IndexedVec::zeros(4);
        v.make_dense();
        v.set(0, 1.0);
        v.set(2, 2.0);
        v.adopt_pattern(&[0, 2, 2]);
        assert!(v.is_sparse());
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.count_nonzeros(), 2);
    }

    #[test]
    fn pos_set_walks_members_ascending() {
        let members = [0usize, 5, 63, 64, 65, 127, 128, 199];
        let mut set = PosSet::default();
        set.rebuild(200, |i| members.contains(&i));
        assert_eq!(set.iter().collect::<Vec<_>>(), members);
        assert_eq!(set.next_from(0), Some(0));
        assert_eq!(set.next_from(6), Some(63));
        assert_eq!(set.next_from(66), Some(127));
        assert_eq!(set.next_from(129), Some(199));
        assert_eq!(set.next_from(200), None);
        set.assign(64, false);
        set.assign(70, true);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [0, 5, 63, 65, 70, 127, 128, 199]
        );
        let mut empty = PosSet::default();
        empty.rebuild(130, |_| false);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty.next_from(0), None);
    }

    #[test]
    fn column_store_roundtrip() {
        let mut s = ColumnStore::new();
        s.push(3, 1.0);
        s.push(1, 2.0);
        s.seal_column();
        s.seal_column(); // empty column
        s.push(0, -1.0);
        s.seal_column();
        assert_eq!(s.ncols(), 3);
        assert_eq!(s.col_iter(0).collect::<Vec<_>>(), vec![(3, 1.0), (1, 2.0)]);
        assert_eq!(s.col_iter(1).count(), 0);
        assert_eq!(s.col_iter(2).collect::<Vec<_>>(), vec![(0, -1.0)]);
        assert_eq!(s.nnz(), 3);
    }
}
