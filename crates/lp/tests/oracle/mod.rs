//! Brute-force LP oracle for the simplex property tests
//! (`proptest_simplex.rs`, which declares this module).
//!
//! For small problems whose variables all have finite bounds, the feasible
//! region is a polytope and the optimum (if the problem is feasible) is
//! attained at a basic solution: choose `m` basic columns out of the `n + m`
//! columns of `[A | -I]`, park every nonbasic column at one of its bounds,
//! and solve the square system. Enumerating every combination yields the
//! exact optimum, entirely independently of the simplex implementation.
//!
//! Exponential in problem size — only use with `n + m` around ten or less.

#![allow(
    clippy::needless_range_loop,
    reason = "elimination indexes parallel rows"
)]

use sqpr_lp::Problem;

/// Exhaustively computes the optimal objective and a witness point, or
/// `None` if the problem is infeasible.
///
/// # Panics
/// Panics if any column bound is infinite (the polytope must be bounded).
pub fn brute_force_optimum(p: &Problem, tol: f64) -> Option<(f64, Vec<f64>)> {
    let n = p.ncols();
    let m = p.nrows();
    let (col_lb, col_ub) = p.col_bounds();
    let (row_lb, row_ub) = p.row_bounds();
    for j in 0..n {
        assert!(
            col_lb[j].is_finite() && col_ub[j].is_finite(),
            "oracle requires finite column bounds"
        );
    }
    // Effective bounds over [x; s].
    let lb: Vec<f64> = col_lb.iter().chain(row_lb.iter()).copied().collect();
    let ub: Vec<f64> = col_ub.iter().chain(row_ub.iter()).copied().collect();
    let total = n + m;

    // Dense copy of [A | -I].
    let mut cols = vec![vec![0.0; m]; total];
    for j in 0..n {
        for (r, v) in p.matrix().col_iter(j) {
            cols[j][r] = v;
        }
    }
    for i in 0..m {
        cols[n + i][i] = -1.0;
    }

    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut basis = Vec::with_capacity(m);
    enumerate_bases(total, m, &mut basis, &mut |basis| {
        let nonbasic: Vec<usize> = (0..total).filter(|j| !basis.contains(j)).collect();
        // Skip nonbasics with infinite bounds on rows (can't park them);
        // instead enumerate only finite sides. A row with an infinite side
        // simply offers fewer parking choices.
        let mut choices: Vec<Vec<f64>> = Vec::with_capacity(nonbasic.len());
        for &j in &nonbasic {
            let mut c = Vec::new();
            if lb[j].is_finite() {
                c.push(lb[j]);
            }
            #[expect(clippy::float_cmp, reason = "a fixed column parks at its one bound")]
            let fixed = ub[j] == lb[j];
            if ub[j].is_finite() && !fixed {
                c.push(ub[j]);
            }
            if c.is_empty() {
                return; // a free nonbasic can sit anywhere; vertex needs a bound
            }
            choices.push(c);
        }
        let mut pick = vec![0usize; nonbasic.len()];
        loop {
            // Solve B x_B = -sum_j x_j col_j for the current parking.
            let mut rhs = vec![0.0; m];
            for (k, &j) in nonbasic.iter().enumerate() {
                let v = choices[k][pick[k]];
                if v != 0.0 {
                    for r in 0..m {
                        rhs[r] -= cols[j][r] * v;
                    }
                }
            }
            if let Some(xb) = dense_solve(basis.iter().map(|&j| &cols[j]), &rhs, m) {
                // Assemble the full point and check bounds on basics.
                let mut z = vec![0.0; total];
                for (k, &j) in nonbasic.iter().enumerate() {
                    z[j] = choices[k][pick[k]];
                }
                let mut ok = true;
                for (p_, &j) in basis.iter().enumerate() {
                    z[j] = xb[p_];
                    if z[j] < lb[j] - tol || z[j] > ub[j] + tol {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let obj = p.objective_value(&z[..n]);
                    if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                        best = Some((obj, z[..n].to_vec()));
                    }
                }
            }
            // Advance the mixed-radix counter over parking choices.
            let mut k = 0;
            loop {
                if k == pick.len() {
                    return;
                }
                pick[k] += 1;
                if pick[k] < choices[k].len() {
                    break;
                }
                pick[k] = 0;
                k += 1;
            }
        }
    });
    best
}

fn enumerate_bases(total: usize, m: usize, cur: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
    fn rec(
        start: usize,
        total: usize,
        m: usize,
        cur: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]),
    ) {
        if cur.len() == m {
            f(cur);
            return;
        }
        for j in start..total {
            cur.push(j);
            rec(j + 1, total, m, cur, f);
            cur.pop();
        }
    }
    rec(0, total, m, cur, f);
}

/// Gaussian elimination with partial pivoting; returns `None` if singular.
fn dense_solve<'a>(
    cols: impl Iterator<Item = &'a Vec<f64>>,
    rhs: &[f64],
    m: usize,
) -> Option<Vec<f64>> {
    // Build the augmented row-major matrix.
    let cols: Vec<&Vec<f64>> = cols.collect();
    if cols.len() != m {
        return None;
    }
    let mut a = vec![vec![0.0; m + 1]; m];
    for (r, row) in a.iter_mut().enumerate() {
        for (c, col) in cols.iter().enumerate() {
            row[c] = col[r];
        }
        row[m] = rhs[r];
    }
    for k in 0..m {
        // Pivot.
        let mut piv = k;
        for r in k + 1..m {
            if a[r][k].abs() > a[piv][k].abs() {
                piv = r;
            }
        }
        if a[piv][k].abs() < 1e-10 {
            return None;
        }
        a.swap(k, piv);
        let d = a[k][k];
        for c in k..=m {
            a[k][c] /= d;
        }
        for r in 0..m {
            if r != k && a[r][k] != 0.0 {
                let f = a[r][k];
                for c in k..=m {
                    a[r][c] -= f * a[k][c];
                }
            }
        }
    }
    Some((0..m).map(|r| a[r][m]).collect())
}

mod tests {
    use super::*;
    use sqpr_lp::{solve, LpStatus, ProblemBuilder, SimplexOptions};

    #[test]
    fn oracle_matches_simplex_on_small_lp() {
        // min -x - 2y s.t. x + y <= 3, x in [0,2], y in [0,2].
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, 2.0);
        let y = b.add_col(-2.0, 0.0, 2.0);
        let r = b.add_row(f64::NEG_INFINITY, 3.0);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let p = b.build();
        let (obj, _) = brute_force_optimum(&p, 1e-9).expect("feasible");
        assert!((obj - -5.0).abs() < 1e-9);
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - obj).abs() < 1e-6);
    }

    #[test]
    fn oracle_detects_infeasibility() {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(0.0, 0.0, 1.0);
        let r0 = b.add_row(2.0, 3.0); // x in [2,3] impossible for x <= 1
        b.set_coeff(r0, x, 1.0);
        let p = b.build();
        assert!(brute_force_optimum(&p, 1e-9).is_none());
    }
}
