//! Property tests: the cross-submission compressed-LP cache must be
//! behaviour-identical to fresh lowerings, and the lifted factor
//! generation must actually re-attach factorisations across solves.
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
/// pattern) and occasionally appends a cut row; the cached/patched path
/// must agree with a fresh solve on status and objective, round
/// after round, while the root basis of each cached solve warm-starts the
/// next (the cross-submission warm path end to end).
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
                .resume(filter, usize::MAX)
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
            cross_solve_factors: rng.gen_bool(),
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

/// The class keying must actually produce cross-submission patches on
/// re-fixed subsets: once every variable has been fixed at least once,
/// later rounds that only *move* pins within that class never rebuild.
#[test]
fn refix_rounds_patch_instead_of_rebuilding() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<VarId> = (0..6).map(|i| m.add_binary(1.0 + i as f64)).collect();
    m.add_le(vars.iter().map(|&v| (v, 1.0)).collect(), 3.0);
    // Submission 1 pins everything (the widest class).
    for (i, &v) in vars.iter().enumerate() {
        let val = (i % 2) as f64;
        m.set_bounds(v, val, val);
    }
    let mut slot = LpCacheSlot::new();
    let opts = MilpOptions::default();
    solve_warm_cached(&m, &opts, MilpWarmStart::default(), &mut slot);
    assert_eq!(slot.stats().rebuilds, 1);
    // Submissions 2..=5 re-pin different values of the same class.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        for &v in &vars {
            let val = if rng.gen_bool() { 1.0 } else { 0.0 };
            m.set_bounds(v, val, val);
        }
        solve_warm_cached(&m, &opts, MilpWarmStart::default(), &mut slot);
    }
    let stats = slot.stats();
    assert_eq!(stats.rebuilds, 1, "re-pins within the class: {stats:?}");
    assert_eq!(stats.patches, 4, "{stats:?}");
}

/// Cross-solve factor reuse: a pure-LP model solves once per tree, so a
/// second cached solve warm-started from the first's root basis must
/// re-attach the detached factorisation (token held across the pure bound
/// patch) — and must *not* when the ablation flag scopes the token per
/// tree.
#[test]
fn consecutive_cached_roots_reattach_factors() {
    fn model() -> (Model, VarId) {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 4.0, 1.0);
        let y = m.add_continuous(0.0, 4.0, 1.0);
        let z = m.add_continuous(0.0, 2.0, 0.5);
        m.add_le(vec![(x, 1.0), (y, 1.0)], 5.0);
        m.add_le(vec![(y, 1.0), (z, 1.0)], 3.0);
        m.fix_var(z, 1.0);
        (m, z)
    }

    for (flag, expect_reattach) in [(true, true), (false, false)] {
        let (mut m, z) = model();
        let mut slot = LpCacheSlot::new();
        let opts = MilpOptions {
            cross_solve_factors: flag,
            ..MilpOptions::default()
        };
        let r1 = solve_warm_cached(&m, &opts, MilpWarmStart::default(), &mut slot);
        assert_eq!(r1.status, MilpStatus::Optimal);
        assert_eq!(r1.lp_pivots.factor_reattaches, 0, "nothing cached yet");
        // Next "submission": same class, different pin value — bound patch
        // only, matrix untouched.
        m.set_bounds(z, 0.0, 0.0);
        let warm = MilpWarmStart {
            start: None,
            root_basis: r1.root_basis.as_ref(),
        };
        let r2 = solve_warm_cached(&m, &opts, warm, &mut slot);
        assert_eq!(r2.status, MilpStatus::Optimal);
        assert_eq!(slot.stats().patches, 1, "second solve must patch");
        if expect_reattach {
            assert!(
                r2.lp_pivots.factor_reattaches >= 1,
                "cross-solve factors enabled: the root must re-attach, got {:?}",
                r2.lp_pivots
            );
        } else {
            assert_eq!(
                r2.lp_pivots.factor_reattaches, 0,
                "ablation claims a fresh generation per tree"
            );
        }
    }
}

/// Appended cut rows change the matrix: the slot renews its generation, so
/// the next root must refactorise rather than re-attach stale factors (and
/// the solve must stay correct).
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
