//! LP probe: the simplex timed from outside on planner-shaped problems.
//!
//! The traced run of the saturated workloads lowers the root relaxation of
//! every fifth solver round's reduced model to an `sqpr_lp::Problem`
//! through `Model`'s public accessors, then times one cold `solve` and two
//! `solve_from` re-solves (the most fractional binary fixed each way, from
//! the root's basis — what a branch & bound child does). The result is µs
//! per simplex iteration for both, so a kernel change can be sized before
//! in-program tracing exists.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    lp_solve, lp_solve_from, LpProblem, LpStatus, PlanningModel, ProblemBuilder, Sense,
    SimplexOptions, VarType,
};

/// Solver rounds between probes.
pub const PROBE_EVERY: usize = 5;

#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeTotals {
    pub probes: usize,
    pub cold_ns: u64,
    pub cold_iterations: usize,
    pub resolve_ns: u64,
    pub resolve_iterations: usize,
}

impl ProbeTotals {
    pub fn add(&mut self, other: &ProbeTotals) {
        let ProbeTotals {
            probes,
            cold_ns,
            cold_iterations,
            resolve_ns,
            resolve_iterations,
        } = *other;
        self.probes += probes;
        self.cold_ns += cold_ns;
        self.cold_iterations += cold_iterations;
        self.resolve_ns += resolve_ns;
        self.resolve_iterations += resolve_iterations;
    }

    pub fn cold_us_per_iter(&self) -> f64 {
        per_iter_us(self.cold_ns, self.cold_iterations)
    }

    pub fn resolve_us_per_iter(&self) -> f64 {
        per_iter_us(self.resolve_ns, self.resolve_iterations)
    }
}

fn per_iter_us(ns: u64, iterations: usize) -> f64 {
    if iterations == 0 {
        0.0
    } else {
        ns as f64 / 1e3 / iterations as f64
    }
}

/// The root relaxation of `model.milp` as a minimisation LP over its free
/// columns: bound-fixed variables are folded into the row bounds and rows
/// left without a free term are dropped, like the product's own lowering.
/// Returns the problem and, per LP column, whether the variable is integer.
fn lower(model: &PlanningModel) -> (LpProblem, Vec<bool>) {
    let milp = &model.milp;
    let sign = match milp.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut b = ProblemBuilder::new();
    let mut col_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut integer = Vec::new();
    for c in 0..milp.num_cons() {
        let (terms, mut lb, mut ub) = milp.constraint(c);
        let mut free = Vec::with_capacity(terms.len());
        for &(v, a) in terms {
            let (vlb, vub) = milp.var_bounds(v);
            if vub > vlb {
                let col = *col_of.entry(v.index()).or_insert_with(|| {
                    integer.push(milp.var_type(v) != VarType::Continuous);
                    b.add_col(sign * milp.objective_coeff(v), vlb, vub)
                });
                free.push((col, a));
            } else {
                lb -= a * vlb;
                ub -= a * vlb;
            }
        }
        if !free.is_empty() {
            let row = b.add_row(lb, ub);
            for (col, a) in free {
                b.set_coeff(row, col, a);
            }
        }
    }
    (b.build(), integer)
}

/// Probes one reduced model; a root that is infeasible, unbounded or
/// integral contributes its cold solve only.
pub fn probe(model: &PlanningModel, opts: &SimplexOptions, totals: &mut ProbeTotals) {
    let (problem, integer) = lower(model);
    if problem.ncols() == 0 || problem.nrows() == 0 {
        return;
    }
    let started = Instant::now();
    let root = lp_solve(&problem, opts);
    totals.cold_ns += started.elapsed().as_nanos() as u64;
    totals.cold_iterations += root.iterations;
    totals.probes += 1;
    if root.status != LpStatus::Optimal {
        return;
    }
    let branch = root
        .x
        .iter()
        .enumerate()
        .filter(|&(j, _)| integer[j])
        .map(|(j, &x)| (j, (x - x.round()).abs()))
        .filter(|&(_, frac)| frac > 1e-6)
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let Some((j, _)) = branch else {
        return;
    };
    for fixed in [root.x[j].floor(), root.x[j].ceil()] {
        let mut child = problem.clone();
        child.set_col_bounds(j, fixed, fixed);
        let started = Instant::now();
        let sol = lp_solve_from(&child, root.basis.as_ref(), opts);
        totals.resolve_ns += started.elapsed().as_nanos() as u64;
        totals.resolve_iterations += sol.iterations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::bench_config;
    use crate::staged::StagedPlanner;
    use crate::workloads::{find, instance_seed};

    #[test]
    fn probe_times_cold_and_resolve_on_a_planner_model() {
        let def = find("saturated_retry").unwrap();
        let w = def.generate(instance_seed(20629, 0), false);
        let cfg = bench_config(&w.catalog, def.node_budget, def.warm);
        let mut staged = StagedPlanner::new(w.catalog.clone(), cfg).unwrap();
        staged.probe = Some(ProbeTotals::default());
        for (i, q) in w.queries.iter().take(3 * PROBE_EVERY).enumerate() {
            staged.submit(i as u32, q);
        }
        let totals = staged.probe.unwrap();
        assert!((1..=3).contains(&totals.probes), "{totals:?}");
        assert!(staged.probe_wall_ns > 0);
        assert!(totals.cold_iterations > 0 && totals.cold_ns > 0);
        assert!(totals.cold_us_per_iter() > 0.0);
        let mut twice = totals;
        twice.add(&totals);
        assert_eq!(twice.cold_iterations, 2 * totals.cold_iterations);
        assert_eq!(per_iter_us(5_000, 0), 0.0);
        assert_eq!(per_iter_us(5_000, 5), 1.0);
    }
}
