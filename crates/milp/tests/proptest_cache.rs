//! Property tests: the compressed-LP cache must be behaviour-identical to
//! fresh lowerings — a moved bound rebuilds, rows appended under unmoved
//! bounds join the cached lowering — and no tree re-attaches the
//! factorisation of another.
//!
//! Implemented as seeded random-case loops (the sanctioned dependency set
//! has no `proptest`); every case prints its seed on failure so it can be
//! replayed deterministically.

use sqpr_milp::{
    solve, solve_preemptible, IncumbentFilter, LpCacheSlot, MilpOptions, MilpResult, MilpStatus,
    MilpWarmStart, Model, Sense, SolveOutcome, VarId,
};
use sqpr_workload::rng::{Rng, StdRng};

/// One uninterrupted solve served from `slot`.
fn solve_warm_cached(
    m: &Model,
    opts: &MilpOptions,
    warm: MilpWarmStart<'_>,
    slot: &mut LpCacheSlot,
) -> MilpResult {
    solve_preemptible(m, opts, warm, None, Some(slot), usize::MAX)
        .done()
        .expect("usize::MAX quantum never suspends")
}

/// A random binary program over a fixed structure: the "skeleton" the
/// planner would keep across submissions.
fn random_skeleton(rng: &mut StdRng) -> (Model, Vec<VarId>) {
    let nvars = 4 + rng.gen_index(5);
    let mut m = Model::new(if rng.gen_bool() {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars: Vec<VarId> = (0..nvars)
        .map(|_| m.add_binary(rng.gen_range_i64(-6, 7) as f64))
        .collect();
    for _ in 0..(1 + rng.gen_index(3)) {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.gen_bool() {
                terms.push((v, rng.gen_range_i64(1, 4) as f64));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let rhs = rng.gen_range_i64(1, 2 * nvars as i64 + 1) as f64;
        m.add_le(terms, rhs);
    }
    (m, vars)
}

/// Multi-submission sequences: each round re-fixes a random subset of the
/// variables at random binary values (the planner's deployment-pin
/// pattern) and occasionally appends a cut row; the cached path must agree
/// with a fresh solve on status and objective, round after round, while
/// the root basis of each cached solve warm-starts the next (the
/// cross-submission warm path end to end).
#[test]
fn cached_cross_submission_solves_match_fresh() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0xCAC4E ^ seed);
        let (mut m, vars) = random_skeleton(&mut rng);
        let mut slot = LpCacheSlot::new();
        let opts = MilpOptions::default();
        let mut root_basis = None;
        for round in 0..10 {
            for &v in &vars {
                if rng.gen_bool() {
                    let val = if rng.gen_bool() { 1.0 } else { 0.0 };
                    m.set_bounds(v, val, val);
                } else {
                    m.set_bounds(v, 0.0, 1.0);
                }
            }
            if round > 0 && rng.gen_index(4) == 0 {
                // An availability-cut-style appended row (no structure bump).
                let mut terms = Vec::new();
                for &v in &vars {
                    if rng.gen_bool() {
                        terms.push((v, 1.0));
                    }
                }
                if !terms.is_empty() {
                    let rhs = (1 + rng.gen_index(vars.len())) as f64;
                    m.add_le(terms, rhs);
                }
            }
            let warm = MilpWarmStart {
                start: None,
                root_basis: root_basis.as_ref(),
            };
            let cached = solve_warm_cached(&m, &opts, warm, &mut slot);
            let fresh = solve(&m, &opts);
            assert_eq!(
                cached.status, fresh.status,
                "seed {seed} round {round}: status diverged"
            );
            if cached.status == MilpStatus::Optimal {
                assert!(
                    (cached.objective - fresh.objective).abs() <= 1e-6,
                    "seed {seed} round {round}: objective diverged: cached {} vs fresh {}",
                    cached.objective,
                    fresh.objective
                );
                let x = cached.x.as_ref().expect("optimal has a solution");
                assert!(
                    m.is_feasible(x, 1e-6),
                    "seed {seed} round {round}: cached solution infeasible"
                );
            }
            root_basis = cached.root_basis;
        }
        let stats = slot.stats();
        assert_eq!(
            stats.rebuilds + stats.patches,
            10,
            "seed {seed}: every round is a construction: {stats:?}"
        );
    }
}

/// Every observable of two searches, bit for bit: status, tree, simplex work,
/// objective and bound bits, solution bits and the exported root basis.
fn assert_bit_identical(ctx: &str, a: &MilpResult, b: &MilpResult) {
    assert_eq!(a.status, b.status, "{ctx}: status");
    assert_eq!(a.nodes, b.nodes, "{ctx}: nodes");
    assert_eq!(a.lp_iterations, b.lp_iterations, "{ctx}: lp_iterations");
    assert_eq!(a.lp_pivots, b.lp_pivots, "{ctx}: lp_pivots");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{ctx}: objective"
    );
    assert_eq!(
        a.best_bound.to_bits(),
        b.best_bound.to_bits(),
        "{ctx}: best_bound"
    );
    let bits = |x: &Option<Vec<f64>>| {
        x.as_ref()
            .map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
    };
    assert_eq!(bits(&a.x), bits(&b.x), "{ctx}: x");
    assert_eq!(
        format!("{:?}", a.root_basis),
        format!("{:?}", b.root_basis),
        "{ctx}: root basis"
    );
}

/// One solve to the end: a first slice of `quantum` nodes, then whatever
/// it suspended resumed without a quantum. Returns whether it suspended.
fn sliced(
    m: &Model,
    opts: &MilpOptions,
    warm: MilpWarmStart<'_>,
    filter: Option<IncumbentFilter<'_>>,
    cache: Option<&mut LpCacheSlot>,
    quantum: usize,
) -> (MilpResult, bool) {
    match solve_preemptible(m, opts, warm, filter, cache, quantum) {
        SolveOutcome::Done(r) => (r, false),
        SolveOutcome::Suspended(state) => {
            let r = state
                .resume(m, filter, usize::MAX)
                .done()
                .expect("an unbounded slice never suspends");
            (r, true)
        }
    }
}

/// A solve without a cache is a solve over a private, fresh slot: over the
/// file's skeletons, re-fixed and cut as the planner would, with and
/// without a seed start (feasible or not), an incumbent filter and a root
/// basis, uninterrupted and suspended at a random quantum then resumed to
/// the end, both give the same search bit for bit.
#[test]
fn cacheless_solves_are_fresh_slot_solves() {
    let (mut suspended, mut seeded, mut filtered) = (0, 0, 0);
    for seed in 0..240u64 {
        let mut rng = StdRng::seed_from_u64(0xF2E5 ^ (seed << 3));
        let (mut m, vars) = random_skeleton(&mut rng);
        for &v in &vars {
            match rng.gen_index(3) {
                0 => m.set_bounds(v, 0.0, 0.0),
                1 => m.set_bounds(v, 1.0, 1.0),
                _ => {}
            }
        }
        if rng.gen_bool() {
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            m.add_le(terms, (1 + rng.gen_index(vars.len())) as f64);
        }
        let opts = MilpOptions {
            presolve: rng.gen_index(4) != 0,
            ..MilpOptions::default()
        };
        let base = solve(&m, &opts);
        let start: Option<Vec<f64>> = match rng.gen_index(3) {
            0 => None,
            1 => base.x.clone(),
            _ => Some(vars.iter().map(|_| rng.gen_index(2) as f64).collect()),
        };
        let warm = MilpWarmStart {
            start: start.as_deref(),
            root_basis: base.root_basis.as_ref().filter(|_| rng.gen_bool()),
        };
        let odd_sum = |x: &[f64]| x.iter().map(|v| v.round() as i64).sum::<i64>() % 2 == 1;
        let filter = rng.gen_bool().then_some(&odd_sum as IncumbentFilter<'_>);
        seeded += usize::from(start.is_some());
        filtered += usize::from(filter.is_some());
        for quantum in [usize::MAX, rng.gen_index(base.nodes + 1)] {
            let ctx = format!("seed {seed}, quantum {quantum}");
            let (plain, cut) = sliced(&m, &opts, warm, filter, None, quantum);
            let mut slot = LpCacheSlot::new();
            let (slotted, slot_cut) = sliced(&m, &opts, warm, filter, Some(&mut slot), quantum);
            assert_eq!(cut, slot_cut, "{ctx}: suspension");
            assert_bit_identical(&ctx, &plain, &slotted);
            suspended += usize::from(cut);
        }
    }
    assert!(suspended >= 80, "only {suspended} solves suspended");
    assert!(seeded >= 120, "only {seeded} seeded solves");
    assert!(filtered >= 90, "only {filtered} filtered solves");
}

/// Re-pinning moves bounds, so each such round rebuilds: the rebuild folds
/// the current pins (debug builds replay the full pass, `Model::lower_reduced`,
/// behind every refresh and assert equality), and the solve over it is a
/// fresh slot's, bit for bit.
#[test]
fn refix_rounds_rebuild_to_the_fresh_lowering() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<VarId> = (0..6).map(|i| m.add_binary(1.0 + i as f64)).collect();
    m.add_le(vars.iter().map(|&v| (v, 1.0)).collect(), 3.0);
    let mut slot = LpCacheSlot::new();
    let opts = MilpOptions::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut moved = 0;
    for round in 0..5 {
        // Every submission pins every variable, at values of its own.
        let stamp = m.bounds_stamp();
        for &v in &vars {
            let val = if rng.gen_bool() { 1.0 } else { 0.0 };
            m.set_bounds(v, val, val);
        }
        moved += usize::from(m.bounds_stamp() != stamp);
        let cached = solve_warm_cached(&m, &opts, MilpWarmStart::default(), &mut slot);
        assert_bit_identical(&format!("round {round}"), &cached, &solve(&m, &opts));
    }
    let stats = slot.stats();
    assert!(moved >= 4, "only {moved} rounds moved a pin");
    assert_eq!(
        (stats.rebuilds, stats.patches),
        (moved, 5 - moved),
        "{stats:?}"
    );
    assert_eq!(stats.refix_patches, 0);
}

/// Appended cut rows change the matrix, and the next tree claims a
/// generation of its own: its root refactorises rather than re-attaching
/// stale factors (and the solve stays correct).
#[test]
fn appended_rows_fence_factor_reuse() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_continuous(0.0, 4.0, 1.0);
    let y = m.add_continuous(0.0, 4.0, 1.0);
    let f = m.add_continuous(0.0, 1.0, 0.0);
    m.add_le(vec![(x, 1.0), (y, 1.0)], 5.0);
    m.fix_var(f, 1.0);
    let mut slot = LpCacheSlot::new();
    let opts = MilpOptions::default();
    let r1 = solve_warm_cached(&m, &opts, MilpWarmStart::default(), &mut slot);
    assert_eq!(r1.status, MilpStatus::Optimal);
    m.add_le(vec![(x, 1.0)], 3.0); // cut: matrix grows a row
    let warm = MilpWarmStart {
        start: None,
        root_basis: r1.root_basis.as_ref(),
    };
    let r2 = solve_warm_cached(&m, &opts, warm, &mut slot);
    assert_eq!(r2.status, MilpStatus::Optimal);
    assert_eq!(
        r2.lp_pivots.factor_reattaches, 0,
        "a grown matrix must not re-attach factors built for the old shape"
    );
    assert!(
        (r2.objective - 5.0).abs() < 1e-6,
        "x + y <= 5 still binds under the cut: got {}",
        r2.objective
    );
    assert_eq!(slot.stats().appended_rows, 1);
}
