//! Property tests: a preemptible branch & bound chopped into arbitrary
//! suspend/resume slices must be *bit-identical* to the uninterrupted
//! search — same tree (node count), same simplex work (iteration and
//! pivot counters), same objective bits, same incumbent — because a cut
//! happens strictly between node evaluations and node evaluation is a pure
//! function of the node.
//!
//! Implemented as seeded random-case loops (the sanctioned dependency set
//! has no `proptest`); every case prints its seed on failure so it can be
//! replayed deterministically.

use sqpr_milp::{
    solve, solve_preemptible, LpCacheSlot, MilpOptions, MilpResult, MilpWarmStart, Model, Sense,
    SolveOutcome, VarType,
};
use sqpr_workload::rng::{Rng, StdRng};

#[derive(Debug, Clone)]
struct RandomIp {
    nvars: usize,
    maximize: bool,
    obj: Vec<i32>,
    ub: Vec<u8>,                    // lower bounds are 0; upper in [0, 3]
    rows: Vec<(Vec<i32>, i32, u8)>, // coeffs, lb, width (range rows)
}

/// Correlated-knapsack generator: tight rows keep the LP root fractional
/// and the bound weak, so trees routinely grow past a handful of nodes and
/// the quantum cuts land mid-search rather than after completion.
fn random_ip(rng: &mut StdRng) -> RandomIp {
    let nvars = rng.gen_index(9) + 6;
    let nrows = rng.gen_index(3) + 2;
    let maximize = rng.gen_bool();
    let ub: Vec<u8> = (0..nvars).map(|_| rng.gen_index(3) as u8 + 1).collect();
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let coeffs: Vec<i32> = (0..nvars)
            .map(|_| {
                if rng.gen_index(10) < 7 {
                    rng.gen_range_i64(2, 9) as i32
                } else {
                    0
                }
            })
            .collect();
        let mass: i32 = coeffs.iter().zip(&ub).map(|(c, u)| c * *u as i32).sum();
        let cap = mass * (40 + rng.gen_index(21) as i32) / 100;
        rows.push((coeffs, 0, cap.clamp(0, u8::MAX as i32) as u8));
    }
    let sign = if maximize { 1 } else { -1 };
    let obj = rows[0]
        .0
        .iter()
        .map(|c| sign * (c + rng.gen_range_i64(-2, 2) as i32).max(1))
        .collect();
    RandomIp {
        nvars,
        maximize,
        obj,
        ub,
        rows,
    }
}

fn build(ip: &RandomIp) -> Model {
    let mut m = Model::new(if ip.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars: Vec<_> = (0..ip.nvars)
        .map(|j| m.add_var(VarType::Integer, 0.0, ip.ub[j] as f64, ip.obj[j] as f64))
        .collect();
    for (coeffs, lb, width) in &ip.rows {
        m.add_range(
            *lb as f64,
            (*lb + *width as i32) as f64,
            vars.iter()
                .zip(coeffs)
                .map(|(&v, &c)| (v, c as f64))
                .collect(),
        );
    }
    m
}

/// Every observable of the search, compared bit-for-bit (objectives via
/// `to_bits`, not a tolerance: the resumed search runs the *same*
/// floating-point operations in the same order, so even the rounding must
/// agree).
fn assert_identical(ctx: &str, a: &MilpResult, b: &MilpResult) {
    assert_eq!(a.status, b.status, "{ctx}: status diverged");
    assert_eq!(a.nodes, b.nodes, "{ctx}: nodes diverged");
    assert_eq!(
        a.lp_iterations, b.lp_iterations,
        "{ctx}: lp_iterations diverged"
    );
    assert_eq!(a.lp_pivots, b.lp_pivots, "{ctx}: lp_pivots diverged");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{ctx}: objective bits diverged ({} vs {})",
        a.objective,
        b.objective
    );
    assert_eq!(
        a.best_bound.to_bits(),
        b.best_bound.to_bits(),
        "{ctx}: best_bound bits diverged"
    );
    match (&a.x, &b.x) {
        (None, None) => {}
        (Some(xa), Some(xb)) => {
            assert_eq!(xa.len(), xb.len(), "{ctx}: solution length diverged");
            for (j, (va, vb)) in xa.iter().zip(xb).enumerate() {
                assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: x[{j}] bits diverged");
            }
        }
        _ => panic!("{ctx}: solution presence diverged"),
    }
}

/// Drives a preemptible solve through the given quantum slices (the last
/// slice is always unbounded so the run terminates), counting cuts.
fn chopped(model: &Model, opts: &MilpOptions, quanta: &[usize]) -> (MilpResult, usize) {
    let mut cuts = 0usize;
    let mut slices = quanta.iter().copied();
    let first = slices.next().unwrap_or(usize::MAX);
    let mut outcome = solve_preemptible(model, opts, MilpWarmStart::default(), None, None, first);
    loop {
        match outcome {
            SolveOutcome::Done(r) => return (r, cuts),
            SolveOutcome::Suspended(state) => {
                cuts += 1;
                let q = slices.next().unwrap_or(usize::MAX);
                outcome = state.resume(None, q);
            }
        }
    }
}

#[test]
fn suspend_resume_is_bit_identical_to_uninterrupted() {
    let mut cut_runs = 0usize;
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ (seed << 2));
        let ip = random_ip(&mut rng);
        let model = build(&ip);
        let opts = MilpOptions::default();
        let base = solve(&model, &opts);

        // Random quantum schedule, deliberately including 0-node
        // slices (suspend before the first evaluation) and quanta past
        // the tree size (the run completes mid-slice).
        let mut quanta = Vec::new();
        if rng.gen_bool() {
            quanta.push(0);
        }
        for _ in 0..rng.gen_index(4) + 1 {
            quanta.push(rng.gen_index(base.nodes.max(1) + 2));
        }
        quanta.push(base.nodes + 100); // past-completion slice
        let (r, cuts) = chopped(&model, &opts, &quanta);
        let ctx = format!("seed {seed}, quanta {quanta:?} on {ip:?}");
        assert_identical(&ctx, &base, &r);
        if cuts > 0 {
            cut_runs += 1;
        }
    }
    assert!(
        cut_runs >= 20,
        "only {cut_runs}/64 runs actually suspended; \
         the quantum schedule no longer exercises suspend/resume"
    );
}

#[test]
fn single_node_quanta_match_uninterrupted() {
    // The pathological schedule: one node per slice, a cut at *every* node
    // boundary.
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xF1CE ^ (seed << 4));
        let ip = random_ip(&mut rng);
        let model = build(&ip);
        let opts = MilpOptions {
            max_nodes: 200,
            ..MilpOptions::default()
        };
        let base = solve(&model, &opts);
        let quanta = vec![1usize; base.nodes + 2];
        let (r, _) = chopped(&model, &opts, &quanta);
        let ctx = format!("seed {seed}, per-node cuts on {ip:?}");
        assert_identical(&ctx, &base, &r);
    }
}

#[test]
fn suspend_leaves_cache_slot_serving_other_solves() {
    // A suspended search parked mid-tree must not corrupt the cache slot it
    // was served from: the slot keeps serving *other* solves while the
    // state is parked, and the parked search still finishes identically.
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x51A7 ^ (seed << 5));
        let ip = random_ip(&mut rng);
        let model = build(&ip);
        let opts = MilpOptions::default();
        let base = solve(&model, &opts);

        let mut slot = LpCacheSlot::new();
        let outcome = solve_preemptible(
            &model,
            &opts,
            MilpWarmStart::default(),
            None,
            Some(&mut slot),
            (base.nodes / 2).max(1),
        );
        match outcome {
            SolveOutcome::Done(r) => {
                // Tree too small to cut in half — still must match.
                assert_identical(&format!("seed {seed} (uncut)"), &base, &r);
            }
            SolveOutcome::Suspended(state) => {
                // Interleave: a different full solve through the same slot
                // while the first search is parked.
                let again = solve_preemptible(
                    &model,
                    &opts,
                    MilpWarmStart::default(),
                    None,
                    Some(&mut slot),
                    usize::MAX,
                )
                .done()
                .expect("usize::MAX quantum never suspends");
                assert_eq!(again.status, base.status, "seed {seed}: slot corrupted");
                assert_eq!(
                    again.objective.to_bits(),
                    base.objective.to_bits(),
                    "seed {seed}: interleaved solve diverged"
                );
                // The parked search resumes and finishes bit-identically.
                let SolveOutcome::Done(r) = state.resume(None, usize::MAX) else {
                    panic!("seed {seed}: unbounded resume slice suspended");
                };
                assert_identical(&format!("seed {seed} (resumed)"), &base, &r);
            }
        }
    }
}
