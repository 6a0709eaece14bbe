//! Ablation studies for the planner's design choices (the `ablations` row
//! of `crates/bench/README.md`).
//!
//! Each ablation runs the same workload with one knob flipped and reports
//! the admitted-query count (and, where relevant, load-balance metrics).

use sqpr_core::{AcyclicityMode, PlannerConfig, RelayPolicy, SqprPlanner};
use sqpr_dsps::metrics::jain_fairness;
use sqpr_workload::{generate, WorkloadSpec};

use crate::harness::{budget_for_timeout, Series};

fn run_with(
    cfg_mod: impl Fn(&mut PlannerConfig),
    scale: f64,
    queries: Option<usize>,
) -> (usize, f64) {
    let spec = WorkloadSpec::paper_sim(scale);
    let w = generate(&spec);
    let mut cfg = PlannerConfig::new(&w.catalog);
    cfg.budget = budget_for_timeout(30);
    cfg_mod(&mut cfg);
    let mut planner = SqprPlanner::new(w.catalog.clone(), cfg);
    let n = queries.unwrap_or(w.queries.len());
    for q in w.queries.iter().take(n) {
        planner.submit(q).expect("valid bases");
    }
    let cpu = planner.state().cpu_usage(planner.catalog());
    (planner.num_admitted(), jain_fairness(&cpu))
}

/// Reuse on/off: value of cross-query sharing (§II-C).
pub fn ablation_reuse(scale: f64) -> Vec<Series> {
    let mut s = Series::new("admitted");
    let (on, _) = run_with(|_| {}, scale, None);
    let (off, _) = run_with(|c| c.reuse = false, scale, None);
    s.push(1.0, on as f64);
    s.push(0.0, off as f64);
    println!("reuse on: {on} admitted; reuse off: {off} admitted");
    vec![s]
}

/// Relay policy: the §II-C stream-relaying freedom vs producers-only.
pub fn ablation_relay(scale: f64) -> Vec<Series> {
    let mut s = Series::new("admitted");
    let (all, _) = run_with(|_| {}, scale, None);
    let (prod, _) = run_with(|c| c.relay_policy = RelayPolicy::ProducersOnly, scale, None);
    s.push(1.0, all as f64);
    s.push(0.0, prod as f64);
    println!("relays allowed: {all} admitted; producers-only: {prod} admitted");
    vec![s]
}

/// §IV-A problem reduction on/off (off is intractable beyond small systems,
/// so this runs a reduced query count).
pub fn ablation_reduction(scale: f64) -> Vec<Series> {
    let n = Some(((40.0 * scale).round() as usize).max(6));
    let mut s = Series::new("admitted");
    let (on, _) = run_with(|_| {}, scale, n);
    let (off, _) = run_with(|c| c.reduction = false, scale, n);
    s.push(1.0, on as f64);
    s.push(0.0, off as f64);
    println!("reduction on: {on} admitted; reduction off: {off} admitted (over {n:?} queries)");
    vec![s]
}

/// IV.9 re-planning flexibility on/off.
pub fn ablation_replan(scale: f64) -> Vec<Series> {
    let mut s = Series::new("admitted");
    let (on, _) = run_with(|_| {}, scale, None);
    let (off, _) = run_with(|c| c.replan = false, scale, None);
    s.push(1.0, on as f64);
    s.push(0.0, off as f64);
    println!("replanning on: {on} admitted; replanning off: {off} admitted");
    vec![s]
}

/// Warm-start (constructive admission) on/off.
pub fn ablation_warmstart(scale: f64) -> Vec<Series> {
    let n = Some(((120.0 * scale).round() as usize).max(6));
    let mut s = Series::new("admitted");
    let (on, _) = run_with(|_| {}, scale, n);
    let (off, _) = run_with(|c| c.warm_start = false, scale, n);
    s.push(1.0, on as f64);
    s.push(0.0, off as f64);
    println!("warm start on: {on} admitted; warm start off: {off} admitted (over {n:?} queries)");
    vec![s]
}

/// In-model (III.7) vs lazy acyclicity.
pub fn ablation_acyclicity(scale: f64) -> Vec<Series> {
    let n = Some(((60.0 * scale).round() as usize).max(6));
    let mut s = Series::new("admitted");
    let t0 = std::time::Instant::now();
    let (lazy, _) = run_with(|_| {}, scale, n);
    let t_lazy = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (cons, _) = run_with(|c| c.acyclicity = AcyclicityMode::Constraints, scale, n);
    let t_cons = t1.elapsed();
    s.push(0.0, lazy as f64);
    s.push(1.0, cons as f64);
    println!("lazy: {lazy} admitted in {t_lazy:?}; III.7 in-model: {cons} admitted in {t_cons:?}");
    vec![s]
}

/// λ3/λ4 sweep (§III-B trade-off between total consumption and balance):
/// reports admitted count and Jain fairness of the CPU distribution.
pub fn ablation_weights(scale: f64) -> Vec<Series> {
    let mut admitted = Series::new("admitted");
    let mut fairness = Series::new("jain fairness");
    for mix in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let (adm, fair) = run_with(|c| c.weights = c.weights.balance_mix(mix), scale, None);
        admitted.push(mix, adm as f64);
        fairness.push(mix, fair);
    }
    vec![admitted, fairness]
}
