//! Property tests for the dual-simplex warm path: re-solving after
//! randomized bound changes from the previous optimal basis must agree
//! with a cold primal solve — same feasibility verdict, same optimal
//! objective — while actually exercising dual pivots (not phase-I).
//!
//! This mirrors `tests/warm_start_equivalence.rs` one layer down: the
//! planner's B&B children and `apply_reduction` re-solves are exactly
//! "same matrix, moved bounds, stale basis", which is the precondition for
//! the dual entry in `sqpr_lp::dual`.
//!
//! Implemented as seeded random-case loops (the sanctioned dependency set
//! has no `proptest`); every case prints its seed on failure so it can be
//! replayed deterministically.

use sqpr_lp::{
    solve, solve_with_bounds_from_ws, LpStatus, LpWorkspace, PricingRule, Problem, ProblemBuilder,
    RatioTest, SimplexOptions, INF,
};
use sqpr_workload::rng::{Rng, StdRng};

/// Random bounded LP, structured like a B&B relaxation: every column in
/// `[0, u]` with u in 1..=3, rows a mix of <=, >= and ranged.
fn random_lp(rng: &mut StdRng) -> (Problem, Vec<f64>, Vec<f64>) {
    let ncols = rng.gen_index(6) + 2;
    let nrows = rng.gen_index(4) + 1;
    let mut b = ProblemBuilder::new();
    let mut lb = Vec::new();
    let mut ub = Vec::new();
    for _ in 0..ncols {
        let u = (rng.gen_index(3) + 1) as f64;
        b.add_col(rng.gen_range_i64(-6, 6) as f64, 0.0, u);
        lb.push(0.0);
        ub.push(u);
    }
    for _ in 0..nrows {
        let r = match rng.gen_index(3) {
            0 => b.add_row(-INF, rng.gen_range_i64(1, 8) as f64),
            1 => b.add_row(rng.gen_range_i64(-4, 2) as f64, INF),
            _ => {
                let lo = rng.gen_range_i64(-2, 2) as f64;
                b.add_row(lo, lo + rng.gen_index(5) as f64)
            }
        };
        for j in 0..ncols {
            if rng.gen_index(3) != 0 {
                let c = rng.gen_range_i64(-3, 4) as f64;
                if c != 0.0 {
                    b.set_coeff(r, j, c);
                }
            }
        }
    }
    (b.build(), lb, ub)
}

/// Random B&B-style bound change: fix, tighten, or restore a few columns.
fn mutate_bounds(rng: &mut StdRng, lb: &mut [f64], ub: &mut [f64], orig_ub: &[f64]) {
    let n = lb.len();
    for _ in 0..rng.gen_index(3) + 1 {
        let j = rng.gen_index(n);
        match rng.gen_index(4) {
            0 => {
                // Fix to an integer point inside the original range.
                let v = rng.gen_index(orig_ub[j] as usize + 1) as f64;
                lb[j] = v;
                ub[j] = v;
            }
            1 => {
                // Tighten the upper bound (branch "down").
                ub[j] = (ub[j] - 1.0).max(lb[j]);
            }
            2 => {
                // Raise the lower bound (branch "up").
                lb[j] = (lb[j] + 1.0).min(ub[j]);
            }
            _ => {
                // Restore (the reduction freeing a previously fixed var).
                lb[j] = 0.0;
                ub[j] = orig_ub[j];
            }
        }
    }
}

#[test]
fn dual_resolves_match_cold_solves_after_bound_changes() {
    let opts = SimplexOptions::default();
    let mut total_dual = 0usize;
    let mut exercised = 0usize;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xD0A1_5EED ^ seed);
        let (p, lb0, ub0) = random_lp(&mut rng);
        let base = solve(&p, &opts);
        if base.status != LpStatus::Optimal {
            continue;
        }
        let mut lb = lb0.clone();
        let mut ub = ub0.clone();
        // Chain several bound changes, re-solving warm from the previous
        // basis each time — the B&B dive pattern.
        let mut basis = base.basis.clone();
        for step in 0..4 {
            mutate_bounds(&mut rng, &mut lb, &mut ub, &ub0);
            let warm = solve_with_bounds_from_ws(
                &p,
                &lb,
                &ub,
                basis.as_ref(),
                &opts,
                &mut LpWorkspace::new(),
                &mut None,
            );
            let cold = solve_with_bounds_from_ws(
                &p,
                &lb,
                &ub,
                None,
                &opts,
                &mut LpWorkspace::new(),
                &mut None,
            );
            assert_eq!(
                warm.status, cold.status,
                "seed {seed} step {step}: status diverged (warm {:?} vs cold {:?})",
                warm.status, cold.status
            );
            if warm.status == LpStatus::Optimal {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
                    "seed {seed} step {step}: objectives diverged (warm {} vs cold {})",
                    warm.objective,
                    cold.objective
                );
                assert!(
                    p.is_feasible(&warm.x, 1e-6),
                    "seed {seed} step {step}: warm point infeasible"
                );
            }
            assert_eq!(
                warm.pivots.total(),
                warm.iterations,
                "seed {seed} step {step}: pivot phases must sum to the total"
            );
            // Cold solves never take the dual path.
            assert_eq!(cold.pivots.dual, 0, "seed {seed} step {step}");
            if warm.pivots.dual > 0 {
                exercised += 1;
            }
            total_dual += warm.pivots.dual;
            basis = warm.basis.clone();
        }
    }
    // The suite must actually exercise the dual path, not silently fall
    // back to phase-I everywhere.
    assert!(
        total_dual > 0 && exercised >= 10,
        "dual simplex under-exercised: {total_dual} dual pivots over {exercised} warm solves"
    );
}

/// The Harris and bound-flipping dual ratio tests must agree with the
/// classic test on every warm bound-change re-solve: same feasibility
/// verdict, same optimal objective. The long-step path must actually
/// exercise bound flips somewhere in the suite (boxed columns with
/// multi-unit violations are common under the fix/tighten mutations).
#[test]
fn ratio_test_modes_agree_on_warm_resolves() {
    let modes = [RatioTest::Classic, RatioTest::Harris, RatioTest::LongStep];
    let mut longstep_flips = 0usize;
    let mut longstep_dual = 0usize;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0x10A6_57E9 ^ (seed << 1));
        let (p, lb0, ub0) = random_lp(&mut rng);
        let base = solve(&p, &SimplexOptions::default());
        if base.status != LpStatus::Optimal {
            continue;
        }
        let mut lb = lb0.clone();
        let mut ub = ub0.clone();
        for step in 0..3 {
            mutate_bounds(&mut rng, &mut lb, &mut ub, &ub0);
            let cold = solve_with_bounds_from_ws(
                &p,
                &lb,
                &ub,
                None,
                &SimplexOptions::default(),
                &mut LpWorkspace::new(),
                &mut None,
            );
            for &ratio_test in &modes {
                let opts = SimplexOptions {
                    ratio_test,
                    ..SimplexOptions::default()
                };
                let warm = solve_with_bounds_from_ws(
                    &p,
                    &lb,
                    &ub,
                    base.basis.as_ref(),
                    &opts,
                    &mut LpWorkspace::new(),
                    &mut None,
                );
                assert_eq!(
                    warm.status, cold.status,
                    "seed {seed} step {step} {ratio_test:?}: status diverged"
                );
                if warm.status == LpStatus::Optimal {
                    assert!(
                        (warm.objective - cold.objective).abs()
                            < 1e-6 * (1.0 + cold.objective.abs()),
                        "seed {seed} step {step} {ratio_test:?}: {} vs {}",
                        warm.objective,
                        cold.objective
                    );
                    assert!(
                        p.is_feasible(&warm.x, 1e-6),
                        "seed {seed} step {step} {ratio_test:?}: infeasible point"
                    );
                }
                if ratio_test == RatioTest::LongStep {
                    longstep_flips += warm.pivots.bound_flips;
                    longstep_dual += warm.pivots.dual;
                }
            }
        }
    }
    assert!(
        longstep_dual > 0 && longstep_flips > 0,
        "long-step path under-exercised: {longstep_dual} dual pivots, {longstep_flips} flips"
    );
}

/// The devex amortisation heuristic: hinted (warm) re-solves keep unit
/// reference weights, so under `PricingRule::Devex` they price exactly
/// like Dantzig — identical iteration counts, not just identical answers.
#[test]
fn hinted_resolves_price_like_dantzig() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0xAD4E ^ (seed << 2));
        let (p, _, ub0) = random_lp(&mut rng);
        let base = solve(
            &p,
            &SimplexOptions {
                pricing: PricingRule::Dantzig,
                ..SimplexOptions::default()
            },
        );
        if base.status != LpStatus::Optimal {
            continue;
        }
        let mut lb: Vec<f64> = vec![0.0; p.ncols()];
        let mut ub = ub0.clone();
        mutate_bounds(&mut rng, &mut lb, &mut ub, &ub0);
        let [devex, dantzig] = [PricingRule::Devex, PricingRule::Dantzig].map(|pricing| {
            solve_with_bounds_from_ws(
                &p,
                &lb,
                &ub,
                base.basis.as_ref(),
                &SimplexOptions {
                    pricing,
                    ..SimplexOptions::default()
                },
                &mut LpWorkspace::new(),
                &mut None,
            )
        });
        assert_eq!(devex.status, dantzig.status, "seed {seed}");
        assert_eq!(
            devex.iterations, dantzig.iterations,
            "seed {seed}: hinted devex must follow the exact Dantzig path"
        );
        if devex.status == LpStatus::Optimal {
            assert!(
                (devex.objective - dantzig.objective).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn dual_path_handles_infeasible_children() {
    // A tight equality row plus fixed columns: many mutations make the
    // child infeasible; the dual loop must prove it (or fall back), never
    // report a bogus optimum.
    let opts = SimplexOptions::default();
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0xFEA5 ^ (seed << 3));
        let ncols = rng.gen_index(4) + 2;
        let mut b = ProblemBuilder::new();
        for _ in 0..ncols {
            b.add_col(rng.gen_range_i64(-4, 4) as f64, 0.0, 1.0);
        }
        let target = rng.gen_index(ncols) as f64;
        let r = b.add_row(target, target);
        for j in 0..ncols {
            b.set_coeff(r, j, 1.0);
        }
        let p = b.build();
        let base = solve(&p, &opts);
        assert_eq!(base.status, LpStatus::Optimal);
        // Fix every column at a random binary value: feasible only if the
        // sum happens to hit the target.
        let fixed: Vec<f64> = (0..ncols).map(|_| rng.gen_index(2) as f64).collect();
        let warm = solve_with_bounds_from_ws(
            &p,
            &fixed,
            &fixed,
            base.basis.as_ref(),
            &opts,
            &mut LpWorkspace::new(),
            &mut None,
        );
        let cold = solve_with_bounds_from_ws(
            &p,
            &fixed,
            &fixed,
            None,
            &opts,
            &mut LpWorkspace::new(),
            &mut None,
        );
        assert_eq!(
            warm.status, cold.status,
            "seed {seed}: fixed-child verdicts diverged"
        );
        let sum: f64 = fixed.iter().sum();
        let expect_feasible = (sum - target).abs() < 1e-9;
        assert_eq!(
            warm.status == LpStatus::Optimal,
            expect_feasible,
            "seed {seed}: wrong feasibility verdict"
        );
    }
}

/// Forrest–Tomlin and product-form basis updates must agree on every warm
/// bound-change re-solve: same feasibility verdict, same optimal
/// objective, across chained re-solve sequences (the B&B dive pattern).
/// The FT path must actually absorb updates (no silent PFI fallback), and
/// the hyper-sparse kernels must carry a meaningful share of the suite's
/// solves — warm re-solves are exactly where hyper-sparsity pays.
#[test]
fn basis_update_modes_agree_on_warm_resolves() {
    use sqpr_lp::BasisUpdate;
    let mut ft_updates = 0usize;
    let mut sparse = 0usize;
    let mut dense = 0usize;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xFEED_F00D ^ (seed << 2));
        let (p, lb0, ub0) = random_lp(&mut rng);
        let base = solve(&p, &SimplexOptions::default());
        if base.status != LpStatus::Optimal {
            continue;
        }
        let mut lb = lb0.clone();
        let mut ub = ub0.clone();
        let mut basis_ft = base.basis.clone();
        let mut basis_pfi = base.basis.clone();
        for step in 0..4 {
            mutate_bounds(&mut rng, &mut lb, &mut ub, &ub0);
            let ft = solve_with_bounds_from_ws(
                &p,
                &lb,
                &ub,
                basis_ft.as_ref(),
                &SimplexOptions {
                    basis_update: BasisUpdate::ForrestTomlin,
                    ..SimplexOptions::default()
                },
                &mut LpWorkspace::new(),
                &mut None,
            );
            let pfi = solve_with_bounds_from_ws(
                &p,
                &lb,
                &ub,
                basis_pfi.as_ref(),
                &SimplexOptions {
                    basis_update: BasisUpdate::ProductForm,
                    ..SimplexOptions::default()
                },
                &mut LpWorkspace::new(),
                &mut None,
            );
            assert_eq!(
                ft.status, pfi.status,
                "seed {seed} step {step}: status diverged (FT {:?} vs PFI {:?})",
                ft.status, pfi.status
            );
            if ft.status == LpStatus::Optimal {
                assert!(
                    (ft.objective - pfi.objective).abs() < 1e-6 * (1.0 + pfi.objective.abs()),
                    "seed {seed} step {step}: FT {} vs PFI {}",
                    ft.objective,
                    pfi.objective
                );
                assert!(
                    p.is_feasible(&ft.x, 1e-6),
                    "seed {seed} step {step}: FT point infeasible"
                );
            }
            assert_eq!(
                pfi.pivots.ft_updates, 0,
                "seed {seed} step {step}: PFI mode must not run FT updates"
            );
            ft_updates += ft.pivots.ft_updates;
            sparse += ft.pivots.sparse_solves;
            dense += ft.pivots.dense_solves;
            basis_ft = ft.basis.clone();
            basis_pfi = pfi.basis.clone();
        }
    }
    assert!(
        ft_updates > 0,
        "Forrest–Tomlin under-exercised across the suite"
    );
    // These random LPs are small (m <= 5), below any useful density
    // cutoff, so solves are *recorded* — the hit-rate itself is asserted
    // on the planner-scale bench, not here.
    assert!(sparse + dense > 0, "no solves recorded");
}
