//! Seeded random models shared by the crate's property tests.

use crate::model::{Model, Sense, VarId, VarType};
use sqpr_workload::rng::{Rng, StdRng};

/// A random model in the planner's mould: mostly binaries, a share of
/// them bound-fixed, sparse `<=`/`>=`/`=` rows with mixed-sign
/// coefficients, four in five of them satisfied by one hidden point so
/// that most models are feasible — plus, on odd seeds, an implication
/// chain laid out against the sweep order, so that propagation needs
/// more sweeps than the cap of 6 allows.
pub(crate) fn random_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 6 + rng.gen_index(14);
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<VarId> = (0..n)
        .map(|_| match rng.gen_index(4) {
            0 => m.add_continuous(0.0, rng.gen_range_f64(0.5, 4.0), 1.0),
            1 => m.add_var(VarType::Integer, 0.0, 1.0 + rng.gen_index(4) as f64, 1.0),
            _ => m.add_binary(1.0),
        })
        .collect();
    for &v in &vars {
        if rng.gen_index(3) == 0 {
            let (lb, ub) = m.var_bounds(v);
            let value = if rng.gen_bool() { lb } else { ub.floor() };
            m.fix_var(v, value);
        }
    }
    for _ in 0..(3 + rng.gen_index(10)) {
        append_random_row(&mut m, &mut rng);
    }
    if seed % 2 == 1 {
        // c_0 >= 1 and c_{i+1} >= c_i, the rows in descending i: each
        // sweep carries the forced 1 one link further.
        let chain: Vec<VarId> = (0..10).map(|_| m.add_binary(0.0)).collect();
        for i in (0..chain.len() - 1).rev() {
            m.add_ge(vec![(chain[i + 1], 1.0), (chain[i], -1.0)], 0.0);
        }
        m.add_ge(vec![(chain[0], 1.0)], 1.0);
    }
    m
}

/// The hidden point of [`random_model`]: every variable at its upper
/// bound rounded down (a function of the bounds, so rows appended
/// later agree with the earlier ones).
fn hidden_point(m: &Model, v: VarId) -> f64 {
    m.var_bounds(v).1.floor()
}

pub(crate) fn append_random_row(m: &mut Model, rng: &mut StdRng) {
    let n = m.num_vars();
    let mut terms = Vec::new();
    for _ in 0..(1 + rng.gen_index(5)) {
        // One row in ten may repeat a variable, which costs the
        // lowering its exact adjacency.
        let v = VarId::from_raw(rng.gen_index(n));
        let a = if rng.gen_bool() { 1.0 } else { -1.0 } * (1 + rng.gen_index(3)) as f64;
        if rng.gen_index(10) == 0 || terms.iter().all(|&(seen, _)| seen != v) {
            terms.push((v, a));
        }
    }
    let rhs = if rng.gen_index(5) == 0 {
        rng.gen_range_i64(-2, 6) as f64
    } else {
        terms.iter().map(|&(v, a)| a * hidden_point(m, v)).sum()
    };
    match rng.gen_index(4) {
        0 => m.add_ge(terms, rhs - rng.gen_index(2) as f64),
        1 => m.add_eq(terms, rhs),
        _ => m.add_le(terms, rhs + rng.gen_index(2) as f64),
    };
}
