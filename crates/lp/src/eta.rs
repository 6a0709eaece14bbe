//! Product-form-of-inverse (PFI) eta updates.
//!
//! After a basis change that replaces the basic variable in position `p`
//! with a column whose FTRAN image is `w = B^{-1} a_j`, the new inverse is
//! `B_new^{-1} = E * B_old^{-1}` where `E` differs from the identity only in
//! column `p`. Applying `E` (FTRAN) or `E^T` (BTRAN) is linear in `nnz(w)`.

use crate::sparse::IndexedVec;

/// One eta transformation, stored sparsely.
#[derive(Debug, Clone)]
pub struct Eta {
    /// Basis position that was replaced.
    pub pos: usize,
    /// Pivot element `w[pos]` (guaranteed away from zero by the ratio test).
    pub pivot: f64,
    /// Off-pivot nonzeros of `w`: `(basis_position, value)`, excluding `pos`.
    pub offdiag: Vec<(usize, f64)>,
}

impl Eta {
    /// In-place FTRAN application: `x <- E x`.
    ///
    /// `x_new[pos] = x[pos] / pivot`; `x_new[i] = x[i] - w[i] * x_new[pos]`.
    #[inline]
    pub fn apply_ftran(&self, x: &mut [f64]) {
        let t = x[self.pos] / self.pivot;
        if t == 0.0 {
            x[self.pos] = 0.0;
            return;
        }
        x[self.pos] = t;
        for &(i, v) in &self.offdiag {
            x[i] -= v * t;
        }
    }

    /// In-place BTRAN application: `y <- E^T y`.
    ///
    /// `y_new[pos] = (y[pos] - sum_i w[i] * y[i]) / pivot`, others unchanged.
    #[inline]
    pub fn apply_btran(&self, y: &mut [f64]) {
        let mut t = y[self.pos];
        for &(i, v) in &self.offdiag {
            t -= v * y[i];
        }
        y[self.pos] = t / self.pivot;
    }

    /// Builds an eta from an [`IndexedVec`] FTRAN image, visiting only its
    /// tracked pattern.
    pub fn from_indexed(pos: usize, w: &IndexedVec, drop_tol: f64) -> Self {
        let pivot = w[pos];
        debug_assert!(pivot != 0.0, "eta pivot must be nonzero");
        let mut offdiag = Vec::new();
        w.for_each_nonzero(|i, v| {
            if i != pos && v.abs() > drop_tol {
                offdiag.push((i, v));
            }
        });
        Eta {
            pos,
            pivot,
            offdiag,
        }
    }

    /// Pattern-tracking FTRAN application (see [`Self::apply_ftran`]).
    #[inline]
    pub fn apply_ftran_sp(&self, x: &mut IndexedVec) {
        let t = x[self.pos] / self.pivot;
        if t == 0.0 {
            return;
        }
        x.set(self.pos, t);
        for &(i, v) in &self.offdiag {
            x.set(i, x[i] - v * t);
        }
    }

    /// Pattern-tracking BTRAN application (see [`Self::apply_btran`]).
    #[inline]
    pub fn apply_btran_sp(&self, y: &mut IndexedVec) {
        let yp = y[self.pos];
        let mut t = yp;
        for &(i, v) in &self.offdiag {
            t -= v * y[i];
        }
        if t == 0.0 && yp == 0.0 {
            return; // structurally untouched: keep the pattern tight
        }
        y.set(self.pos, t / self.pivot);
    }

    pub fn nnz(&self) -> usize {
        self.offdiag.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eta of the FTRAN image `w`, built through its tracked pattern.
    fn eta_of(pos: usize, w: &[f64], drop_tol: f64) -> Eta {
        let mut iv = IndexedVec::zeros(w.len());
        for (i, &v) in w.iter().enumerate() {
            if v != 0.0 {
                iv.set(i, v);
            }
        }
        Eta::from_indexed(pos, &iv, drop_tol)
    }

    /// Dense reference: build E explicitly and multiply.
    fn dense_e(eta: &Eta, m: usize) -> Vec<Vec<f64>> {
        let mut e = vec![vec![0.0; m]; m];
        for (i, row) in e.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        // Column `pos` of E: E[pos][pos] = 1/pivot, E[i][pos] = -w_i/pivot.
        for row in e.iter_mut() {
            row[eta.pos] = 0.0;
        }
        e[eta.pos][eta.pos] = 1.0 / eta.pivot;
        for &(i, v) in &eta.offdiag {
            e[i][eta.pos] = -v / eta.pivot;
        }
        e
    }

    fn matvec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn matvec_t(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|j| (0..m).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    #[test]
    fn ftran_matches_dense_reference() {
        let w = [0.5, 2.0, 0.0, -1.0];
        let eta = eta_of(1, &w, 0.0);
        let e = dense_e(&eta, 4);
        let x0 = [1.0, 3.0, -2.0, 0.25];
        let expect = matvec(&e, &x0);
        let mut x = x0;
        eta.apply_ftran(&mut x);
        for (a, b) in x.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12, "{x:?} vs {expect:?}");
        }
    }

    #[test]
    fn btran_matches_dense_reference() {
        let w = [0.5, 2.0, 0.0, -1.0];
        let eta = eta_of(1, &w, 0.0);
        let e = dense_e(&eta, 4);
        let y0 = [2.0, -1.0, 4.0, 1.0];
        let expect = matvec_t(&e, &y0);
        let mut y = y0;
        eta.apply_btran(&mut y);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {expect:?}");
        }
    }

    #[test]
    fn ftran_then_inverse_roundtrip() {
        // E^{-1} has the same structure with w restored; applying E then
        // reconstructing the original vector validates the algebra.
        let w = [1.0, 0.0, 4.0];
        let eta = eta_of(2, &w, 0.0);
        let x0 = [3.0, -1.0, 2.0];
        let mut x = x0;
        eta.apply_ftran(&mut x);
        // Reverse: x_old[pos] = x_new[pos]*pivot; x_old[i] = x_new[i] + w_i*x_new[pos]
        let t = x[2];
        x[2] = t * eta.pivot;
        for &(i, v) in &eta.offdiag {
            x[i] += v * t;
        }
        for (a, b) in x.iter().zip(&x0) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn drop_tolerance_prunes_tiny_entries() {
        let w = [1e-14, 1.0, 0.5];
        let eta = eta_of(1, &w, 1e-12);
        assert_eq!(eta.offdiag.len(), 1);
        assert_eq!(eta.offdiag[0], (2, 0.5));
    }
}
