//! One planner pass over one workload instance: the closed loop with one
//! client (the planner is a single-writer state machine — Algorithm 1 plans
//! one arrival at a time), the per-op timing, and the output checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::adapter::{
    recover_from_failures, CacheStats, Catalog, DeploymentState, HostId, PivotCounts,
    PlanningOutcome, SqprPlanner, StormBudget, StormReport, StreamId,
};
use crate::staged::StagedPlanner;
use crate::trace::Tracer;
use crate::workloads::{Script, WorkloadDef};

/// What one submission decided and what it cost the solver — the part of a
/// planning round that must repeat exactly between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    pub admitted: bool,
    /// Served by an existing provider without solving (Algorithm 1 line 3).
    pub reused: bool,
    pub nodes: usize,
    pub lp_iterations: usize,
}

impl Round {
    fn of(outcome: &PlanningOutcome) -> Self {
        Round {
            admitted: outcome.admitted,
            reused: outcome.reused_existing,
            nodes: outcome.nodes,
            lp_iterations: outcome.lp_iterations,
        }
    }
}

/// Anything that can take the submission stream: the real planner, or the
/// traced run's staged re-enactment of it.
pub trait SubmitEngine {
    /// `op` is the index of this call in the pass (the spans' `op`).
    fn submit_op(&mut self, op: u32, bases: &[StreamId]) -> Result<Round, String>;
    fn deployment(&self) -> (&DeploymentState, &Catalog);
    fn objective(&self) -> f64;
}

impl SubmitEngine for SqprPlanner {
    fn submit_op(&mut self, _op: u32, bases: &[StreamId]) -> Result<Round, String> {
        self.submit(bases)
            .map(|o| Round::of(&o))
            .map_err(|e| e.to_string())
    }
    fn deployment(&self) -> (&DeploymentState, &Catalog) {
        (self.state(), self.catalog())
    }
    fn objective(&self) -> f64 {
        self.deployment_objective()
    }
}

impl SubmitEngine for StagedPlanner {
    fn submit_op(&mut self, op: u32, bases: &[StreamId]) -> Result<Round, String> {
        Ok(self.submit(op, bases))
    }
    fn deployment(&self) -> (&DeploymentState, &Catalog) {
        (self.state(), self.catalog())
    }
    fn objective(&self) -> f64 {
        self.deployment_objective()
    }
}

/// Totals of the storms of one `churn_storm` pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StormTally {
    pub storms: usize,
    pub displaced: usize,
    pub replanned: usize,
    pub degraded: usize,
    pub dropped: usize,
    pub nodes_spent: usize,
    pub rehomed: usize,
}

impl StormTally {
    pub fn add(&mut self, other: &StormTally) {
        let StormTally {
            storms,
            displaced,
            replanned,
            degraded,
            dropped,
            nodes_spent,
            rehomed,
        } = *other;
        self.storms += storms;
        self.displaced += displaced;
        self.replanned += replanned;
        self.degraded += degraded;
        self.dropped += dropped;
        self.nodes_spent += nodes_spent;
        self.rehomed += rehomed;
    }

    fn record(&mut self, report: &StormReport) {
        self.storms += 1;
        self.displaced += report.recoveries.len();
        self.replanned += report.replanned();
        self.degraded += report.degraded();
        self.dropped += report.dropped();
        self.nodes_spent += report.nodes_spent;
        self.rehomed += report.rehomed.len();
    }
}

/// Solver-side counters of one pass, read from the planner's own reports
/// (`PlanningOutcome`, `StormReport`) — never from the clock.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub solver_rounds: usize,
    pub nodes: usize,
    pub lp_iterations: usize,
    pub pivots: PivotCounts,
    pub cache: CacheStats,
    pub model_vars: usize,
    pub model_cons: usize,
}

impl Counters {
    pub fn record(&mut self, outcome: &PlanningOutcome) {
        if outcome.reused_existing {
            return;
        }
        self.solver_rounds += 1;
        self.nodes += outcome.nodes;
        self.lp_iterations += outcome.lp_iterations;
        self.pivots.merge(&outcome.lp_pivots);
        self.cache.add(&outcome.lp_cache);
        self.model_vars += outcome.model_vars;
        self.model_cons += outcome.model_cons;
    }

    pub fn add(&mut self, other: &Counters) {
        let Counters {
            solver_rounds,
            nodes,
            lp_iterations,
            pivots,
            cache,
            model_vars,
            model_cons,
        } = other;
        self.solver_rounds += solver_rounds;
        self.nodes += nodes;
        self.lp_iterations += lp_iterations;
        self.pivots.merge(pivots);
        self.cache.add(cache);
        self.model_vars += model_vars;
        self.model_cons += model_cons;
    }
}

/// Everything one pass produced: timings, decisions, check results.
#[derive(Debug, Default, Clone)]
pub struct PassLog {
    /// Decision and solver cost of every submission, in op order.
    pub rounds: Vec<Round>,
    /// Wall time of every `submit` call, ms.
    pub submit_ms: Vec<f64>,
    /// Wall time of every `remove_query` call, µs (`churn_storm`).
    pub remove_us: Vec<f64>,
    /// Wall time of `fail_host` + `recover_from_failures` per storm, ms.
    pub storm_ms: Vec<f64>,
    pub storms: StormTally,
    /// Public planner calls made / failed in the measured loop.
    pub ops: usize,
    pub failed_ops: usize,
    /// Wall time of the measured loop, s.
    pub loop_s: f64,
    /// Per arrival: admitted by any of its submissions.
    pub arrival_admitted: Vec<bool>,
    pub retries: usize,
    pub retries_admitted: usize,
    /// Final deployment: admitted queries, objective, `validate` time.
    pub admitted_now: usize,
    pub objective: f64,
    pub validate_ms: f64,
    /// Check failures, one line each (empty = the pass is correct).
    pub errors: Vec<String>,
}

impl PassLog {
    /// `a` admitted by the solver, `r` by reuse, `x` rejected.
    pub fn decisions(&self) -> String {
        self.rounds
            .iter()
            .map(|r| match (r.admitted, r.reused) {
                (true, true) => 'r',
                (true, false) => 'a',
                (false, _) => 'x',
            })
            .collect()
    }

    fn timed_submit(
        &mut self,
        engine: &mut dyn SubmitEngine,
        arrival: usize,
        bases: &[StreamId],
    ) -> bool {
        let op = self.ops as u32;
        self.ops += 1;
        let started = Instant::now();
        let result = engine.submit_op(op, bases);
        self.submit_ms.push(started.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(round) => {
                self.rounds.push(round);
                self.arrival_admitted[arrival] |= round.admitted;
                round.admitted
            }
            // A rejection is a verdict; an error on generated input is a
            // failed operation.
            Err(e) => {
                self.failed_ops += 1;
                self.errors
                    .push(format!("submit of arrival {arrival}: {e}"));
                false
            }
        }
    }

    /// Tallies one storm and checks its account: every displaced query is
    /// replanned, degraded or dropped, and — hosts survive every storm of
    /// the script — none is dropped.
    fn record_storm(&mut self, host: HostId, report: &StormReport, counters: &mut Counters) {
        self.storms.record(report);
        for outcome in report.recoveries.iter().filter_map(|r| r.outcome.as_ref()) {
            counters.record(outcome);
        }
        let dropped = report.dropped();
        if dropped > 0 {
            self.failed_ops += dropped;
            self.errors
                .push(format!("storm on {host} dropped {dropped} queries"));
        }
        let accounted = report.replanned() + report.degraded() + dropped;
        if accounted != report.recoveries.len() {
            self.errors.push(format!(
                "storm on {host}: {} displaced but {accounted} accounted for",
                report.recoveries.len()
            ));
        }
    }

    /// The solver-independent output checks on the final deployment.
    fn check_deployment(&mut self, engine: &dyn SubmitEngine) {
        let (state, catalog) = engine.deployment();
        let started = Instant::now();
        let violations = state.validate(catalog);
        self.validate_ms = started.elapsed().as_secs_f64() * 1e3;
        for v in violations.iter().take(5) {
            self.errors.push(format!("deployment invalid: {v:?}"));
        }
        for (q, stream) in state.admitted() {
            if state.provider_of(*stream).is_none() {
                self.errors
                    .push(format!("admitted query {q} has no provider"));
            }
        }
        self.admitted_now = state.num_admitted();
        self.objective = engine.objective();
    }
}

/// Plays the submission script (`Stream` / `StreamWithRetry`) of `def` over
/// `queries`. A panic inside the engine is caught: the rest of the pass
/// counts as failed.
pub fn run_stream_pass(
    def: &WorkloadDef,
    queries: &[Vec<StreamId>],
    engine: &mut dyn SubmitEngine,
) -> PassLog {
    let mut log = PassLog {
        arrival_admitted: vec![false; queries.len()],
        ..PassLog::default()
    };
    let retry = def.script == Script::StreamWithRetry;
    let started = Instant::now();
    let mut next_arrival = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // A rejected query is re-submitted once, right after the next
        // arrival (or after the last one): maybe the newcomer's re-planning
        // freed what it needed.
        let mut pending: Option<usize> = None;
        for i in 0..=queries.len() {
            let admitted = queries.get(i).is_none_or(|bases| {
                next_arrival = i + 1;
                log.timed_submit(engine, i, bases)
            });
            if let Some(r) = pending.take() {
                log.retries += 1;
                log.retries_admitted += usize::from(log.timed_submit(engine, r, &queries[r]));
            }
            if retry && !admitted {
                pending = Some(i);
            }
        }
    }));
    log.loop_s = started.elapsed().as_secs_f64();
    if outcome.is_err() {
        let lost = queries.len() - next_arrival + 1;
        log.ops += lost - 1;
        log.failed_ops += lost;
        log.errors
            .push(format!("panic in the planner; {lost} operations lost"));
        return log;
    }
    log.check_deployment(engine);
    log
}

/// Runs `f` inside a span when the pass is traced.
fn spanned<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let id = t.enter(name);
            let out = f();
            t.exit(id);
            out
        }
        None => f(),
    }
}

/// Set-up of `churn_storm`: submits the first `prefill` arrivals.
pub fn prefill(planner: &mut SqprPlanner, queries: &[Vec<StreamId>], counters: &mut Counters) {
    for bases in queries {
        if let Ok(outcome) = planner.submit(bases) {
            counters.record(&outcome);
        }
    }
}

/// The measured loop of `churn_storm` over a prefilled planner; see
/// [`Script::Churn`]. With a tracer, every public lifecycle call gets a
/// span (the planner's internals are not re-enacted here).
pub fn run_churn_pass(
    def: &WorkloadDef,
    queries: &[Vec<StreamId>],
    planner: &mut SqprPlanner,
    counters: &mut Counters,
    mut tracer: Option<&mut Tracer>,
) -> PassLog {
    let Script::Churn {
        storm_every,
        storm_nodes,
        ..
    } = def.script
    else {
        unreachable!("run_churn_pass is only called for the churn script");
    };
    let prefilled = planner.outcomes().len();
    let mut log = PassLog {
        arrival_admitted: vec![false; queries.len()],
        ..PassLog::default()
    };
    for (i, o) in planner.outcomes().iter().enumerate() {
        log.arrival_admitted[i] = o.admitted;
    }
    let hosts = planner.catalog().num_hosts();
    let budget = StormBudget::nodes(storm_nodes);
    let rounds = queries.len() - prefilled;
    let started = Instant::now();
    let mut done = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for r in 0..rounds {
            if let Some(t) = tracer.as_deref_mut() {
                t.set_op(log.ops as u32);
            }
            if let Some(&oldest) = planner.state().admitted().keys().next() {
                log.ops += 1;
                let t0 = Instant::now();
                spanned(&mut tracer, "core.planner.remove", || {
                    planner.remove_query(oldest)
                });
                log.remove_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }

            let arrival = prefilled + r;
            log.ops += 1;
            let t0 = Instant::now();
            let result = spanned(&mut tracer, "core.planner.submit", || {
                planner.submit(&queries[arrival])
            });
            log.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(o) => {
                    counters.record(&o);
                    log.rounds.push(Round::of(&o));
                    log.arrival_admitted[arrival] = o.admitted;
                }
                Err(e) => {
                    log.failed_ops += 1;
                    log.errors.push(format!("submit of arrival {arrival}: {e}"));
                }
            }

            if r % storm_every == storm_every - 1 {
                let h = HostId(((r / storm_every) % hosts) as u32);
                log.ops += 2;
                let t0 = Instant::now();
                let down = spanned(&mut tracer, "core.recovery.storm", || {
                    planner.fail_host(h);
                    recover_from_failures(planner, &budget)
                });
                log.storm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                log.ops += 2;
                let up = spanned(&mut tracer, "core.recovery.restore", || {
                    planner.restore_host(h);
                    recover_from_failures(planner, &budget)
                });
                for report in [&down, &up] {
                    log.record_storm(h, report, counters);
                }
            }
            done = r + 1;
        }
    }));
    log.loop_s = started.elapsed().as_secs_f64();
    if outcome.is_err() {
        let lost = 2 * (rounds - done);
        log.ops += lost;
        log.failed_ops += lost;
        log.errors
            .push(format!("panic in the planner; {lost} operations lost"));
        return log;
    }
    log.check_deployment(planner);
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::bench_config;
    use crate::workloads::{instance_seed, WORKLOADS};

    fn real_pass(def: &WorkloadDef, seed: u64) -> PassLog {
        let w = def.generate(instance_seed(seed, 0), true);
        let cfg = bench_config(&w.catalog, def.node_budget, def.warm);
        let mut planner = SqprPlanner::new(w.catalog.clone(), cfg);
        match def.script {
            Script::Churn { .. } => {
                let mut counters = Counters::default();
                prefill(&mut planner, &w.queries[..def.prefill(true)], &mut counters);
                run_churn_pass(def, &w.queries, &mut planner, &mut counters, None)
            }
            _ => run_stream_pass(def, &w.queries, &mut planner),
        }
    }

    #[test]
    fn a_pass_repeats_exactly() {
        for def in &WORKLOADS {
            let a = real_pass(def, 20629);
            let b = real_pass(def, 20629);
            assert!(a.errors.is_empty(), "{}: {:?}", def.name, a.errors);
            assert_eq!(a.failed_ops, 0);
            assert_eq!(a.rounds, b.rounds, "{}", def.name);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.submit_ms.len(), a.rounds.len());
            assert_eq!(a.decisions().len(), a.rounds.len());
        }
    }

    #[test]
    fn churn_pass_storms_and_accounts_for_every_displaced_query() {
        let def = crate::workloads::find("churn_storm").unwrap();
        let log = real_pass(def, 7);
        assert!(log.errors.is_empty(), "{:?}", log.errors);
        // One fail/recover and one restore/recover per storm round.
        assert_eq!(log.storms.storms, 2 * log.storm_ms.len());
        assert!(!log.storm_ms.is_empty() && !log.remove_us.is_empty());
        assert_eq!(
            log.storms.displaced,
            log.storms.replanned + log.storms.degraded + log.storms.dropped
        );
        assert_eq!(log.storms.dropped, 0);
        assert_eq!(
            log.ops,
            log.remove_us.len() + log.submit_ms.len() + 4 * log.storm_ms.len()
        );
    }
}
