//! Property tests: the revised simplex must agree with the brute-force
//! vertex-enumeration oracle on random small LPs.
//!
//! Implemented as seeded random-case loops (the sanctioned dependency set
//! has no `proptest`); every case prints its seed on failure so it can be
//! replayed deterministically.

use sqpr_lp::oracle::brute_force_optimum;
use sqpr_lp::{solve, LpStatus, PricingRule, ProblemBuilder, RatioTest, SimplexOptions, INF};
use sqpr_workload::rng::{Rng, StdRng};

#[derive(Debug, Clone)]
struct RandomLp {
    ncols: usize,
    obj: Vec<i32>,
    col_lb: Vec<i32>,
    col_width: Vec<u8>,
    rows: Vec<(Vec<i32>, i32, u8, u8)>, // coeffs, lb, width, kind(0:<=,1:>=,2:range,3:eq)
}

fn random_lp(rng: &mut StdRng) -> RandomLp {
    let ncols = rng.gen_index(4) + 1;
    let nrows = rng.gen_index(3) + 1;
    let obj = (0..ncols)
        .map(|_| rng.gen_range_i64(-4, 4) as i32)
        .collect();
    let col_lb = (0..ncols)
        .map(|_| rng.gen_range_i64(-3, 2) as i32)
        .collect();
    let col_width = (0..ncols).map(|_| rng.gen_index(6) as u8).collect();
    let rows = (0..nrows)
        .map(|_| {
            (
                (0..ncols)
                    .map(|_| rng.gen_range_i64(-3, 3) as i32)
                    .collect(),
                rng.gen_range_i64(-4, 4) as i32,
                rng.gen_index(7) as u8,
                rng.gen_index(4) as u8,
            )
        })
        .collect();
    RandomLp {
        ncols,
        obj,
        col_lb,
        col_width,
        rows,
    }
}

fn build(lp: &RandomLp) -> sqpr_lp::Problem {
    let mut b = ProblemBuilder::new();
    for j in 0..lp.ncols {
        b.add_col(
            lp.obj[j] as f64,
            lp.col_lb[j] as f64,
            (lp.col_lb[j] as f64) + lp.col_width[j] as f64,
        );
    }
    for (coeffs, lb, width, kind) in &lp.rows {
        let (rlb, rub) = match kind {
            0 => (-INF, *lb as f64 + *width as f64),
            1 => (*lb as f64, INF),
            2 => (*lb as f64, *lb as f64 + *width as f64),
            _ => (*lb as f64, *lb as f64),
        };
        let r = b.add_row(rlb, rub);
        for (j, &c) in coeffs.iter().enumerate() {
            b.set_coeff(r, j, c as f64);
        }
    }
    b.build()
}

#[test]
fn simplex_matches_oracle() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ seed);
        let lp = random_lp(&mut rng);
        let p = build(&lp);
        let oracle = brute_force_optimum(&p, 1e-9);
        let s = solve(&p, &SimplexOptions::default());
        match (oracle, s.status) {
            (Some((obj, _)), LpStatus::Optimal) => {
                assert!(
                    (obj - s.objective).abs() < 1e-5 * (1.0 + obj.abs()),
                    "seed {seed}: oracle {obj} vs simplex {} on {lp:?}",
                    s.objective
                );
                assert!(p.is_feasible(&s.x, 1e-6), "seed {seed}: {lp:?}");
            }
            (None, LpStatus::Infeasible) => {}
            (o, st) => {
                panic!(
                    "seed {seed}: oracle {o:?} vs simplex status {st:?} obj {} on {lp:?}",
                    s.objective
                );
            }
        }
    }
}

/// A deliberately degenerate model family: many rows pass through the same
/// vertex (duplicated and scaled facets), boxed columns, integer data — the
/// structure on which textbook ratio tests grind through zero-length
/// pivots. Assignment-like equality rows mirror the planner's models.
fn random_degenerate_lp(rng: &mut StdRng) -> sqpr_lp::Problem {
    let ncols = rng.gen_index(5) + 3;
    let mut b = ProblemBuilder::new();
    for _ in 0..ncols {
        b.add_col(rng.gen_range_i64(-5, 5) as f64, 0.0, 1.0);
    }
    // A few base facets, each duplicated (possibly scaled) 1-3 times.
    for _ in 0..rng.gen_index(3) + 1 {
        let coeffs: Vec<i64> = (0..ncols).map(|_| rng.gen_range_i64(0, 2)).collect();
        let rhs = rng.gen_range_i64(1, ncols as i64 / 2 + 1) as f64;
        for _ in 0..rng.gen_index(3) + 1 {
            let scale = rng.gen_range_i64(1, 3) as f64;
            let r = b.add_row(-INF, rhs * scale);
            for (j, &c) in coeffs.iter().enumerate() {
                if c != 0 {
                    b.set_coeff(r, j, c as f64 * scale);
                }
            }
        }
    }
    // One assignment-style equality row over a random subset.
    let picked: Vec<usize> = (0..ncols).filter(|_| rng.gen_bool()).collect();
    if picked.len() >= 2 {
        let r = b.add_row(1.0, 1.0);
        for &j in &picked {
            b.set_coeff(r, j, 1.0);
        }
    }
    b.build()
}

/// Every ratio-test mode and pricing rule must agree on status and optimal
/// objective across randomized degenerate models — the refinements may only
/// change the *path*, never the answer.
#[test]
fn ratio_test_modes_agree_on_degenerate_models() {
    let modes = [RatioTest::Classic, RatioTest::Harris, RatioTest::LongStep];
    let pricings = [PricingRule::Dantzig, PricingRule::Devex];
    for seed in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(0xDE9E ^ (seed << 2));
        let p = random_degenerate_lp(&mut rng);
        let reference = solve(
            &p,
            &SimplexOptions {
                ratio_test: RatioTest::Classic,
                pricing: PricingRule::Dantzig,
                ..SimplexOptions::default()
            },
        );
        for &ratio_test in &modes {
            for &pricing in &pricings {
                let opts = SimplexOptions {
                    ratio_test,
                    pricing,
                    ..SimplexOptions::default()
                };
                let s = solve(&p, &opts);
                assert_eq!(
                    s.status, reference.status,
                    "seed {seed} {ratio_test:?}/{pricing:?}: status diverged"
                );
                if s.status == LpStatus::Optimal {
                    assert!(
                        (s.objective - reference.objective).abs()
                            < 1e-6 * (1.0 + reference.objective.abs()),
                        "seed {seed} {ratio_test:?}/{pricing:?}: {} vs {}",
                        s.objective,
                        reference.objective
                    );
                    assert!(
                        p.is_feasible(&s.x, 1e-6),
                        "seed {seed} {ratio_test:?}/{pricing:?}: infeasible point"
                    );
                }
                assert_eq!(
                    s.pivots.total(),
                    s.iterations,
                    "seed {seed}: phase counters must sum to iterations"
                );
            }
        }
    }
}

#[test]
fn bound_overrides_respected() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xB0B ^ (seed << 1));
        let lp = random_lp(&mut rng);
        // Fixing every variable to its lower bound must give either an
        // infeasible verdict or exactly that point.
        let p = build(&lp);
        let lbs: Vec<f64> = lp.col_lb.iter().map(|&v| v as f64).collect();
        let s = sqpr_lp::solve_with_bounds_from_ws(
            &p,
            &lbs,
            &lbs,
            None,
            &SimplexOptions::default(),
            &mut sqpr_lp::LpWorkspace::new(),
        );
        match s.status {
            LpStatus::Optimal => {
                for (a, b) in s.x.iter().zip(&lbs) {
                    assert!((a - b).abs() < 1e-6, "seed {seed}: {lp:?}");
                }
                assert!(p.is_feasible(&s.x, 1e-6), "seed {seed}: {lp:?}");
            }
            LpStatus::Infeasible => {
                assert!(!p.is_feasible(&lbs, 1e-7), "seed {seed}: {lp:?}");
            }
            other => panic!("seed {seed}: unexpected status {other:?} on {lp:?}"),
        }
    }
}

/// Forrest–Tomlin and product-form basis updates must agree on status and
/// optimal objective across randomized models — the update representation
/// may only change the work per pivot, never the answer. Dispatch of the
/// hyper-sparse kernels is input-density driven, so this also sweeps both
/// solve paths.
#[test]
fn basis_update_modes_agree_on_random_models() {
    use sqpr_lp::BasisUpdate;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xF0_7031 ^ (seed << 3));
        let p = if seed % 2 == 0 {
            build(&random_lp(&mut rng))
        } else {
            random_degenerate_lp(&mut rng)
        };
        let reference = solve(
            &p,
            &SimplexOptions {
                basis_update: BasisUpdate::ProductForm,
                ..SimplexOptions::default()
            },
        );
        let ft = solve(
            &p,
            &SimplexOptions {
                basis_update: BasisUpdate::ForrestTomlin,
                ..SimplexOptions::default()
            },
        );
        assert_eq!(ft.status, reference.status, "seed {seed}: status diverged");
        if ft.status == LpStatus::Optimal {
            assert!(
                (ft.objective - reference.objective).abs()
                    < 1e-6 * (1.0 + reference.objective.abs()),
                "seed {seed}: FT {} vs PFI {}",
                ft.objective,
                reference.objective
            );
            assert!(p.is_feasible(&ft.x, 1e-6), "seed {seed}: infeasible point");
        }
        assert_eq!(ft.pivots.pfi_updates, 0, "seed {seed}: FT fell back");
    }
}

/// Kernel-level property: on randomized (repaired) bases undergoing random
/// replacement sequences, the hyper-sparse FTRAN/BTRAN must agree with the
/// dense kernels, and Forrest–Tomlin-updated solves must match both the
/// product-form twin and a fresh refactorisation of the same basic set.
#[test]
fn sparse_dense_and_ft_solves_agree_on_random_bases() {
    use sqpr_lp::basis::{Basis, BasisUpdate};
    use sqpr_lp::{CscMatrix, IndexedVec, Triplet};
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0x05AB_5EED ^ (seed << 1));
        let m = rng.gen_index(20) + 5;
        let n = rng.gen_index(2 * m) + m;
        // Sparse random structural matrix with a nonzero on row j % m per
        // column so most columns are usable pivots.
        let mut trips = Vec::new();
        for j in 0..n {
            trips.push(Triplet {
                row: j % m,
                col: j,
                value: rng.gen_range_i64(1, 5) as f64,
            });
            for _ in 0..rng.gen_index(3) {
                let r = rng.gen_index(m);
                let v = rng.gen_range_i64(-3, 4) as f64;
                if v != 0.0 {
                    trips.push(Triplet {
                        row: r,
                        col: j,
                        value: v,
                    });
                }
            }
        }
        let a = CscMatrix::from_triplets(m, n, &trips);
        // Random initial basic set: slack or structural per row (repair
        // fixes any singular picks).
        let basic: Vec<usize> = (0..m)
            .map(|i| {
                if rng.gen_bool() {
                    n + i
                } else {
                    rng.gen_index(n)
                }
            })
            .collect();
        let mut ft = Basis::new(&a, basic.clone(), BasisUpdate::ForrestTomlin);
        // The repair may alter the basic set; seed the PFI twin with the
        // repaired set so both track the same basis throughout.
        let mut pfi = Basis::new(&a, ft.basic_columns().to_vec(), BasisUpdate::ProductForm);

        for step in 0..10 {
            // Agreement on a random sparse rhs, both directions, both
            // modes, sparse vs dense kernels.
            let mut rhs_pattern = vec![0.0; m];
            for _ in 0..rng.gen_index(3) + 1 {
                rhs_pattern[rng.gen_index(m)] = rng.gen_range_i64(-4, 5) as f64;
            }
            let mut sp = IndexedVec::zeros(m);
            for (i, &v) in rhs_pattern.iter().enumerate() {
                if v != 0.0 {
                    sp.set(i, v);
                }
            }
            let mut dense = rhs_pattern.clone();
            ft.ftran_sp(&mut sp, &mut 0.0);
            ft.ftran(&mut dense);
            let mut pfi_dense = rhs_pattern.clone();
            pfi.ftran(&mut pfi_dense);
            for i in 0..m {
                assert!(
                    (sp[i] - dense[i]).abs() < 1e-8,
                    "seed {seed} step {step}: sparse vs dense FTRAN"
                );
                assert!(
                    (dense[i] - pfi_dense[i]).abs() < 1e-8,
                    "seed {seed} step {step}: FT vs PFI FTRAN"
                );
            }
            let mut c_sp = IndexedVec::zeros(m);
            c_sp.set(rng.gen_index(m), 1.0);
            let mut c_dense = c_sp.as_slice().to_vec();
            ft.btran_sp(&mut c_sp, &mut 0.0);
            ft.btran(&mut c_dense);
            for i in 0..m {
                assert!(
                    (c_sp[i] - c_dense[i]).abs() < 1e-8,
                    "seed {seed} step {step}: sparse vs dense BTRAN"
                );
            }

            // Random replacement: pick a nonbasic column whose FTRAN image
            // admits a usable pivot, apply it to both twins.
            let mut done = false;
            for _ in 0..6 {
                let j = rng.gen_index(n + m);
                if ft.basic_columns().contains(&j) {
                    continue;
                }
                let mut w = IndexedVec::zeros(m);
                ft.ftran_column_sp(j, &mut w);
                let mut best = (usize::MAX, 0.0f64);
                for p in 0..m {
                    if w[p].abs() > best.1.abs() {
                        best = (p, w[p]);
                    }
                }
                if best.0 == usize::MAX || best.1.abs() < 1e-6 {
                    continue;
                }
                let mut w_pfi = IndexedVec::zeros(m);
                pfi.ftran_column_sp(j, &mut w_pfi);
                ft.replace(best.0, j, &w);
                pfi.replace(best.0, j, &w_pfi);
                done = true;
                break;
            }
            if !done {
                break;
            }
        }

        // FT-updated solves must match a fresh refactorisation.
        let probe: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut via_updates = probe.clone();
        ft.ftran(&mut via_updates);
        ft.refactorize();
        let mut via_fresh = probe.clone();
        ft.ftran(&mut via_fresh);
        for i in 0..m {
            assert!(
                (via_updates[i] - via_fresh[i]).abs() < 1e-7 * (1.0 + via_fresh[i].abs()),
                "seed {seed}: FT solve drifted from fresh refactorisation"
            );
        }
    }
}
