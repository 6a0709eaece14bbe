//! The exactness fixture for "same pivots" changes: a recorded trace of
//! what the simplex did on a corpus of planner-shaped LPs, solve by solve.
//!
//! Each case is a seeded LP shaped like the planner's reduced MILPs —
//! boxed-binary admission and placement columns, many of them bound-fixed
//! (the §IV-A reduction pins everything already deployed), assignment
//! equalities, capacity rows with many terms and flow-link rows. It is
//! solved cold, then through a chain of bound-change re-solves the way
//! branch & bound runs them: every re-solve is warm-started from the
//! previous solve's basis and seeded with its final factorisation through
//! the solves' `factors` argument, and every step also solves a sibling
//! (the other child) from the same parent seed. The options rotate over the planner's settings and the
//! ablations (product-form updates, classic ratio test, Dantzig pricing, a
//! tight refactorisation cadence, a low fill limit).
//!
//! Per solve the trace records the status, the iteration count, every
//! pivot-sequence counter, the objective's bits and FNV-1a hashes of the
//! primal point's bits and of the final basis. The hashes only summarise
//! recorded bits: two runs agree on a line exactly when they took the same
//! pivots to the same vertex with the same rounding. A change that claims
//! to move no pivot must leave `fixtures/pivot_trace.txt` as it is; one
//! that moves pivots on purpose re-records it with
//!
//! ```text
//! cargo test -p sqpr-lp --test pivot_trace -- --ignored record_pivot_trace
//! ```

use std::fmt::Write as _;

use sqpr_lp::{
    solve_with_bounds_from_ws, solve_with_bounds_recovering_ws, BasisUpdate, LpSolution, LpStatus,
    LpWorkspace, PricingRule, Problem, ProblemBuilder, RatioTest, SimplexOptions, VarBasisStatus,
    INF,
};
use sqpr_workload::rng::{Rng, StdRng};

/// Seeded LPs in the corpus.
const CASES: u64 = 200;

/// Bound-change re-solves per chain (each with a sibling solve).
const STEPS: usize = 8;

/// The recorded trace.
const FIXTURE: &str = include_str!("fixtures/pivot_trace.txt");

/// A planner-shaped LP and its starting column bounds.
struct Case {
    lp: Problem,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// The boxed-binary columns a branch may fix.
    binaries: Vec<usize>,
}

/// Admission columns `d_q` (cost `-λ`), placement columns `x` with
/// resource costs and host loads, flow columns `f` with link rows
/// `x - f <= 0`, one assignment row `Σ x - d_q = 0` per query and one
/// capacity row per host. Most queries are pinned as the reduction pins
/// what is already decided: deployed (admitted, one placement and its
/// flows at one) or not (everything at zero); host capacities leave a
/// little room over what the deployed queries use.
fn planner_lp(rng: &mut StdRng, large: bool) -> Case {
    let queries = if large {
        70 + rng.gen_index(20)
    } else {
        4 + rng.gen_index(12)
    };
    let hosts = if large { 14 } else { 2 + rng.gen_index(5) };
    let mut b = ProblemBuilder::new();
    let (mut lb, mut ub, mut binaries) = (Vec::new(), Vec::new(), Vec::new());
    let mut binary = |b: &mut ProblemBuilder, cost: f64, pin: Option<f64>| {
        let j = b.add_col(cost, 0.0, 1.0);
        let (l, u) = pin.map_or((0.0, 1.0), |v| (v, v));
        lb.push(l);
        ub.push(u);
        binaries.push(j);
        j
    };
    let capacity: Vec<usize> = (0..hosts).map(|_| b.add_row(-INF, 0.0)).collect();
    let mut used = vec![0.0; hosts];
    for q in 0..queries {
        let pinned = rng.gen_index(10) < 7;
        let deployed = pinned && rng.gen_index(3) != 0;
        let pin = |on: bool| pinned.then_some(if on { 1.0 } else { 0.0 });
        let d = binary(&mut b, -100.0 - (q % 7) as f64, pin(deployed));
        let assign = b.add_row(0.0, 0.0);
        b.set_coeff(assign, d, -1.0);
        let placements = 2 + rng.gen_index(4);
        let chosen = rng.gen_index(placements);
        for k in 0..placements {
            let on = deployed && k == chosen;
            let x = binary(&mut b, rng.gen_range_i64(1, 9) as f64, pin(on));
            b.set_coeff(assign, x, 1.0);
            let h = rng.gen_index(hosts);
            let load = rng.gen_range_i64(5, 45) as f64 / 10.0;
            b.set_coeff(capacity[h], x, load);
            if on {
                used[h] += load;
            }
            if rng.gen_bool() {
                let f = binary(&mut b, 0.5 * rng.gen_range_i64(1, 4) as f64, pin(on));
                let link = b.add_row(-INF, 0.0);
                b.set_coeff(link, x, 1.0);
                b.set_coeff(link, f, -1.0);
            }
        }
    }
    // The capacities are drawn last, once the deployed load is known, but
    // their rows come first: the problem is assembled again with them.
    let lp = b.build();
    let (row_lb, mut row_ub) = (lp.row_bounds().0.to_vec(), lp.row_bounds().1.to_vec());
    for (h, &row) in capacity.iter().enumerate() {
        row_ub[row] = used[h] + rng.gen_range_i64(0, 60) as f64 / 10.0;
    }
    let (col_lb, col_ub) = lp.col_bounds();
    let lp = Problem::new(
        lp.matrix().clone(),
        lp.objective().to_vec(),
        col_lb.to_vec(),
        col_ub.to_vec(),
        row_lb,
        row_ub,
    );
    Case {
        lp,
        lb,
        ub,
        binaries,
    }
}

/// The options of case `k`: the planner's settings and the ablations in
/// rotation.
fn options(k: u64) -> SimplexOptions {
    let base = SimplexOptions::default();
    match k % 6 {
        0 => base,
        1 => SimplexOptions {
            perturb: 1e-7,
            ..base
        },
        2 => SimplexOptions {
            perturb: 1e-7,
            refactor_interval: 6,
            ..base
        },
        3 => SimplexOptions {
            basis_update: BasisUpdate::ProductForm,
            ..base
        },
        4 => SimplexOptions {
            ratio_test: RatioTest::Classic,
            pricing: PricingRule::Dantzig,
            ..base
        },
        _ => SimplexOptions {
            ratio_test: RatioTest::Harris,
            ft_fill_limit: 1.2,
            perturb: 1e-7,
            ..base
        },
    }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One trace line.
fn record(out: &mut String, case: u64, label: &str, s: &LpSolution) {
    let status = match s.status {
        LpStatus::Optimal => 'O',
        LpStatus::Infeasible => 'I',
        LpStatus::Unbounded => 'U',
        LpStatus::IterationLimit => 'L',
    };
    let p = &s.pivots;
    assert_eq!(
        p.refactor_causes(),
        p.refactorizations,
        "case {case} {label}: every refactorisation has exactly one cause"
    );
    let x = fnv(s.x.iter().map(|v| v.to_bits()));
    let basis = s.basis.as_ref().map_or(0, |b| {
        let code = |st: &VarBasisStatus| match st {
            VarBasisStatus::Basic => 0u64,
            VarBasisStatus::AtLower => 1,
            VarBasisStatus::AtUpper => 2,
            VarBasisStatus::Free => 3,
        };
        fnv(b
            .basic
            .iter()
            .map(|&j| j as u64)
            .chain(b.status.iter().map(code)))
    });
    let _ = writeln!(
        out,
        "{case} {label} {status} {} {} {} {} {} {} {} {} {} {} {:016x} {x:016x} {basis:016x}",
        s.iterations,
        p.phase1,
        p.primal,
        p.dual,
        p.bound_flips,
        p.harris_degenerate_saved,
        p.ft_updates,
        p.pfi_updates,
        p.refactorizations,
        p.factor_reattaches,
        s.objective.to_bits(),
    );
}

/// The most fractional free binary of `x`, else a seeded free binary.
fn branch_column(c: &Case, x: &[f64], lb: &[f64], ub: &[f64], rng: &mut StdRng) -> Option<usize> {
    let free: Vec<usize> = c
        .binaries
        .iter()
        .copied()
        .filter(|&j| lb[j] < ub[j])
        .collect();
    let mut best: Option<(usize, f64)> = None;
    for &j in &free {
        let dist = (x[j] - x[j].floor()).min(x[j].ceil() - x[j]);
        if dist > 1e-6 && best.is_none_or(|(_, d)| dist > d) {
            best = Some((j, dist));
        }
    }
    best.map(|(j, _)| j)
        .or_else(|| (!free.is_empty()).then(|| free[rng.gen_index(free.len())]))
}

/// Plays case `k` and appends its lines to `out`.
fn play(k: u64, out: &mut String) {
    let mut rng = StdRng::seed_from_u64(0x005E_ED0F_7ACE ^ (k << 8));
    let c = planner_lp(&mut rng, k % 10 == 9);
    let opts = options(k);
    let mut ws = LpWorkspace::new();
    let (mut lb, mut ub) = (c.lb.clone(), c.ub.clone());
    let mut seed = None;
    let mut parent = solve_with_bounds_from_ws(&c.lp, &lb, &ub, None, &opts, &mut ws, &mut seed);
    record(out, k, "cold", &parent);
    for step in 0..STEPS {
        // The reduction frees a pinned column now and then, in both children.
        if rng.gen_index(4) == 0 {
            let fixed: Vec<usize> = c
                .binaries
                .iter()
                .copied()
                .filter(|&j| lb[j] == ub[j])
                .collect();
            if !fixed.is_empty() {
                let j = fixed[rng.gen_index(fixed.len())];
                lb[j] = 0.0;
                ub[j] = 1.0;
            }
        }
        let Some(j) = branch_column(&c, &parent.x, &lb, &ub, &mut rng) else {
            break;
        };
        // Down child continues the chain; the up child is its sibling.
        let (mut up_lb, up_ub) = (lb.clone(), ub.clone());
        up_lb[j] = 1.0;
        ub[j] = 0.0;
        let mut sibling_seed = seed.clone();
        let sibling = solve_with_bounds_recovering_ws(
            &c.lp,
            &up_lb,
            &up_ub,
            parent.basis.as_ref(),
            &opts,
            &mut ws,
            &mut sibling_seed,
        );
        record(out, k, &format!("{step}u"), &sibling);
        let down = solve_with_bounds_recovering_ws(
            &c.lp,
            &lb,
            &ub,
            parent.basis.as_ref(),
            &opts,
            &mut ws,
            &mut seed,
        );
        record(out, k, &format!("{step}d"), &down);
        // An infeasible child ends its branch: continue from the sibling.
        if down.status == LpStatus::Optimal || sibling.status != LpStatus::Optimal {
            parent = down;
        } else {
            (lb, ub) = (up_lb, up_ub);
            parent = sibling;
            seed = sibling_seed;
        }
    }
}

fn trace() -> String {
    let mut out = String::new();
    for k in 0..CASES {
        play(k, &mut out);
    }
    out
}

#[test]
fn pivot_sequences_match_the_recorded_trace() {
    let now = trace();
    let mut exercised = [0usize; 7];
    for line in now.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        // phase-1, dual, flips, FT updates, PFI updates, refactorisations,
        // re-attaches (Harris saves are recorded but rare on such data)
        for (slot, field) in [4, 6, 7, 9, 10, 11, 12].into_iter().enumerate() {
            exercised[slot] += f[field].parse::<usize>().unwrap_or(0);
        }
    }
    assert!(
        exercised.iter().all(|&n| n > 0),
        "the corpus must exercise every pivot path: {exercised:?}"
    );
    if now != FIXTURE {
        let (at, (got, want)) = now
            .lines()
            .zip(FIXTURE.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((
                now.lines().count().min(FIXTURE.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "pivot trace diverged at line {} (of {} recorded):\n  now:      {got}\n  recorded: {want}\n\
             (fields: case step status iterations phase1 primal dual flips harris ft pfi \
             refactorizations reattaches objective x-hash basis-hash)",
            at + 1,
            FIXTURE.lines().count()
        );
    }
}

/// Re-records the fixture (run under `-p sqpr-lp`; see the module docs).
#[test]
#[ignore]
fn record_pivot_trace() {
    assert_eq!(
        env!("CARGO_PKG_NAME"),
        "sqpr-lp",
        "re-record from the sqpr-lp package, where the fixture path resolves"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pivot_trace.txt"
    );
    std::fs::write(path, trace()).expect("write the pivot-trace fixture");
}
