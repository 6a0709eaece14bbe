//! One benchmark run: fresh-planner passes over instances of one workload —
//! a fixed number first, then more until the time box closes — pooled into
//! the end-to-end and per-layer metrics. The exact metrics rest on the fixed
//! instances alone, so they do not depend on how many more the clock allowed.
//!
//! End-to-end numbers always come from the real planner with tracing off.
//! A traced run adds, per instance, a second pass with spans — the staged
//! re-enactment on the submission workloads, the planner's public lifecycle
//! calls on `churn_storm` — and must reproduce the first pass exactly.

use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{bench_config, SqprPlanner, Workload};
use crate::drive::{prefill, run_churn_pass, run_stream_pass, Counters, PassLog, StormTally};
use crate::metrics::{median, summarize, MetricDef, END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use crate::probe::ProbeTotals;
use crate::staged::{StagedPlanner, StagedTally};
use crate::trace::{append_jsonl, TraceSummary, Tracer};
use crate::workloads::{instance_seed, Script, WorkloadDef, ANCHOR};

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Time box of the run, covering set-ups and measured loops; it also
    /// sets how many instances are played whatever the clock says. The pass
    /// in flight when it closes still completes.
    pub seconds: f64,
    pub trace: bool,
    /// One instance, arrivals cut to a tenth.
    pub smoke: bool,
    /// Where the traced run writes its spans as JSON-lines.
    pub spans: Option<PathBuf>,
}

/// One reported metric: its definition, the value (`None` = withheld, e.g.
/// p95 under 200 samples) and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Reported {
    pub def: &'static MetricDef,
    pub value: Option<f64>,
    pub samples: usize,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub passes: usize,
    /// The passes the exact metrics are pooled over.
    pub fixed_passes: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Every check passed and no operation failed.
    pub correct: bool,
    pub errors: Vec<String>,
    pub metrics: Vec<Reported>,
}

/// What the exact metrics are made of, pooled over the fixed instances of
/// a run only: a function of the inputs, not of the clock.
#[derive(Default)]
struct Exact {
    passes: usize,
    arrivals: usize,
    arrivals_admitted: usize,
    admitted_now: usize,
    /// Σ (λ1·admitted − deployment objective) over final deployments.
    resource_cost: f64,
    displaced: usize,
    degraded_or_dropped: usize,
}

/// Everything pooled over the instances of one run.
#[derive(Default)]
struct Totals {
    passes: usize,
    exact: Exact,
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    remove_us: Vec<f64>,
    storm_ms: Vec<f64>,
    storms: StormTally,
    ops: usize,
    failed_ops: usize,
    loop_s: f64,
    submits: usize,
    reused: usize,
    retries: usize,
    retries_admitted: usize,
    validate_ms: f64,
    counters: Counters,
    compactions: usize,
    incremental_rounds: usize,
    errors: Vec<String>,
    /// `VmHWM` when the last measured pass ended.
    peak_rss_mb: Option<f64>,
    // Traced passes.
    traced_passes: usize,
    trace: TraceSummary,
    spans: usize,
    traced_loop_s: f64,
    /// Measured-loop time of the untraced passes that have a traced twin.
    twin_loop_s: f64,
    equivalent: bool,
    tally: StagedTally,
    probe: ProbeTotals,
    /// The first instance's decisions on the other solver path were the same.
    warm_cold_identical: bool,
}

impl Totals {
    /// Pools one pass; `fixed` marks a pass the run plays whatever the
    /// clock says, the only kind the exact metrics count.
    fn absorb(&mut self, log: &PassLog, lambda1: f64, fixed: bool) {
        if fixed {
            let e = &mut self.exact;
            e.passes += 1;
            e.arrivals += log.arrival_admitted.len();
            e.arrivals_admitted += log.arrival_admitted.iter().filter(|&&a| a).count();
            e.admitted_now += log.admitted_now;
            e.resource_cost += lambda1 * log.admitted_now as f64 - log.objective;
            e.displaced += log.storms.displaced;
            e.degraded_or_dropped += log.storms.degraded + log.storms.dropped;
        }
        self.passes += 1;
        self.submit_ms.extend_from_slice(&log.submit_ms);
        self.remove_us.extend_from_slice(&log.remove_us);
        self.storm_ms.extend_from_slice(&log.storm_ms);
        self.storms.add(&log.storms);
        self.ops += log.ops;
        self.failed_ops += log.failed_ops;
        self.loop_s += log.loop_s;
        self.submits += log.rounds.len();
        self.reused += log.rounds.iter().filter(|r| r.reused).count();
        self.retries += log.retries;
        self.retries_admitted += log.retries_admitted;
        self.validate_ms += log.validate_ms;
        self.keep_errors(log);
    }

    /// Carries a pass's check failures (the first few) into the report.
    fn keep_errors(&mut self, log: &PassLog) {
        self.errors.extend(log.errors.iter().take(8).cloned());
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `VmHWM` of this process in MB (each workload runs in its own process).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fresh real planner for `w`, prefilled when the script asks for it.
fn fresh_planner(
    def: &WorkloadDef,
    w: &Workload,
    smoke: bool,
    counters: &mut Counters,
) -> SqprPlanner {
    let cfg = bench_config(&w.catalog, def.node_budget, def.warm);
    let mut planner = SqprPlanner::new(w.catalog.clone(), cfg);
    prefill(&mut planner, &w.queries[..def.prefill(smoke)], counters);
    planner
}

/// Set-ups per instance: one where set-up includes the prefill (half a
/// second), fifty where it is generation and construction alone (under a
/// millisecond), so that `setup_s` is the median of a hundred or more.
fn setup_repeats(def: &WorkloadDef) -> usize {
    if is_churn(def) {
        1
    } else {
        50
    }
}

fn is_churn(def: &WorkloadDef) -> bool {
    matches!(def.script, Script::Churn { .. })
}

/// The real planner's untraced pass over one instance.
fn real_pass(
    def: &WorkloadDef,
    w: &Workload,
    planner: &mut SqprPlanner,
    counters: &mut Counters,
) -> PassLog {
    if is_churn(def) {
        return run_churn_pass(def, &w.queries, planner, counters, None);
    }
    let log = run_stream_pass(def, &w.queries, planner);
    for outcome in planner.outcomes() {
        counters.record(outcome);
    }
    log
}

/// Admissions by which the warm and the cold path may differ on one
/// instance before the run counts as wrong.
const WALL_TOLERANCE: usize = 3;

/// `log`'s instance once more on the other solver path, untimed.
fn reference_pass(def: &WorkloadDef, w: &Workload, smoke: bool) -> PassLog {
    let mut other = *def;
    other.warm = !def.warm;
    let mut planner = fresh_planner(&other, w, smoke, &mut Counters::default());
    run_stream_pass(&other, &w.queries, &mut planner)
}

/// Cold as the independent reference for warm (and the other way round).
/// Under a node budget a rejection is a budget verdict, not a proof — at
/// node budget 15 about one instance in twenty flips a decision or two
/// between the paths — so what must agree is the admission wall (admitted
/// queries within [`WALL_TOLERANCE`]), and, where the decisions are the
/// same, the deployment objective within 2 %. Returns whether the decision
/// strings were identical.
fn same_wall(log: &PassLog, reference: &PassLog) -> Result<bool, String> {
    let identical = log.decisions() == reference.decisions();
    if log.admitted_now.abs_diff(reference.admitted_now) > WALL_TOLERANCE {
        return Err(format!(
            "warm and cold paths hit different admission walls: {} vs {} admitted ({} vs {})",
            log.admitted_now,
            reference.admitted_now,
            log.decisions(),
            reference.decisions()
        ));
    }
    if identical && (log.objective - reference.objective).abs() > 0.02 * log.objective.abs() {
        return Err(format!(
            "warm and cold paths decided alike but their objectives differ by over 2 %: {} vs {}",
            log.objective, reference.objective
        ));
    }
    Ok(identical)
}

/// The traced twin of `log`'s pass; returns its log for the equivalence
/// check and folds spans, tallies and probe results into `totals`.
fn traced_pass(
    def: &WorkloadDef,
    w: &Workload,
    opts: &RunOpts,
    totals: &mut Totals,
) -> Option<PassLog> {
    let (log, tracer, probe_ns) = if is_churn(def) {
        let mut scratch = Counters::default();
        let mut planner = fresh_planner(def, w, opts.smoke, &mut scratch);
        let mut tracer = Tracer::new();
        let log = run_churn_pass(
            def,
            &w.queries,
            &mut planner,
            &mut scratch,
            Some(&mut tracer),
        );
        (log, tracer, 0)
    } else {
        let cfg = bench_config(&w.catalog, def.node_budget, def.warm);
        let mut staged = StagedPlanner::new(w.catalog.clone(), cfg)?;
        if def.lp_probe {
            staged.probe = Some(ProbeTotals::default());
        }
        let log = run_stream_pass(def, &w.queries, &mut staged);
        totals.tally.add(&staged.tally);
        if let Some(p) = &staged.probe {
            totals.probe.add(p);
        }
        (log, staged.tracer, staged.probe_wall_ns)
    };
    totals.traced_passes += 1;
    totals.traced_loop_s += log.loop_s - probe_ns as f64 / 1e9;
    totals.trace.merge(&TraceSummary::of(tracer.spans()));
    totals.spans += tracer.spans().len();
    if let Some(path) = &opts.spans {
        if let Err(e) = append_jsonl(path, totals.traced_passes - 1, tracer.spans()) {
            totals
                .errors
                .push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    Some(log)
}

/// Share of the root spans' time that child spans must cover on the
/// submission workloads, in percent.
const MIN_COVERAGE_PCT: f64 = 95.0;

pub fn run_workload(def: &'static WorkloadDef, opts: &RunOpts) -> Report {
    let mut totals = Totals {
        equivalent: true,
        ..Totals::default()
    };
    let fixed = def.fixed_instances(opts.seconds, opts.smoke) as u64;
    let started = Instant::now();
    let mut instance = 0u64;
    let mut first: Option<(Workload, PassLog)> = None;
    // A traced run plays the fixed instances and stops (each twice, which
    // fills the time box), so its counts repeat exactly as well.
    let open_ended = !opts.smoke && !opts.trace;
    while instance < fixed || (open_ended && started.elapsed().as_secs_f64() < opts.seconds) {
        let seed = instance_seed(opts.seed, instance);

        // Set-up: generate the instance, build the planner, prefill. Where
        // that takes well under a millisecond it is done many times, so
        // that `setup_s` is the median of a hundred samples or more per run.
        let (w, mut planner, mut counters) = (0..setup_repeats(def))
            .map(|_| {
                let setup = Instant::now();
                let w = def.generate(seed, opts.smoke);
                totals.generate_ms.push(setup.elapsed().as_secs_f64() * 1e3);
                let mut counters = Counters::default();
                let planner = fresh_planner(def, &w, opts.smoke, &mut counters);
                totals.setup_s.push(setup.elapsed().as_secs_f64());
                (w, planner, counters)
            })
            .last()
            .expect("at least one set-up");
        let lambda1 = planner.config().weights.lambda1;

        let log = real_pass(def, &w, &mut planner, &mut counters);
        totals.absorb(&log, lambda1, instance < fixed);
        totals.counters.add(&counters);
        let stats = planner.solver_stats();
        totals.compactions += stats.compactions;
        totals.incremental_rounds += stats.incremental_rounds;
        drop(planner);

        if opts.trace {
            totals.twin_loop_s += log.loop_s;
            match traced_pass(def, &w, opts, &mut totals) {
                Some(twin) => {
                    totals.keep_errors(&twin);
                    let same = twin.rounds == log.rounds
                        && twin.storms == log.storms
                        && twin.objective.to_bits() == log.objective.to_bits();
                    if !same {
                        totals.equivalent = false;
                        totals.errors.push(format!(
                            "instance {instance}: the traced pass did not reproduce the planner's pass ({} vs {}, objective {} vs {})",
                            twin.decisions(),
                            log.decisions(),
                            twin.objective,
                            log.objective
                        ));
                    }
                }
                None => {
                    totals.equivalent = false;
                    totals
                        .errors
                        .push("the staged round does not cover this configuration".into());
                }
            }
        }
        if instance == 0 {
            first = Some((w, log));
        }
        instance += 1;
    }
    totals.peak_rss_mb = peak_rss_mb();

    // After the measured passes, so that the reference planner neither sits
    // in the time box nor in `peak_rss_mb`: the first instance once more on
    // the other solver path.
    if let Some((w, log)) =
        first.filter(|(_, log)| def.script == Script::StreamWithRetry && log.errors.is_empty())
    {
        match same_wall(&log, &reference_pass(def, &w, opts.smoke)) {
            Ok(identical) => totals.warm_cold_identical = identical,
            Err(e) => totals.errors.push(e),
        }
    }
    if opts.trace && !is_churn(def) {
        let coverage = coverage_pct(&totals.trace);
        if coverage < MIN_COVERAGE_PCT {
            totals.errors.push(format!(
                "trace coverage {coverage:.1} % is under {MIN_COVERAGE_PCT} %: the staged round leaves planner time outside every layer's span"
            ));
        }
    }
    report(def, opts, totals)
}

/// Child spans' share of the root (`core.planner.submit`) spans' time.
fn coverage_pct(trace: &TraceSummary) -> f64 {
    let total = trace.total_ms("core.planner.submit");
    100.0 * ratio(total - trace.self_ms("core.planner.submit"), total)
}

/// What `--workload all` adds at the end: `benches/incremental.rs`'s own
/// instance — `paper_sim(0.07)` generated from `seed` itself, 50 arrivals
/// with one retry per rejection, node budget 200 — once warm and once cold,
/// untimed. Both paths must hit the same admission wall; at the default seed
/// they must also reproduce the committed `BENCH_incremental.json`: the same
/// decisions on both paths, 29 arrivals admitted at first submission and a
/// deployment objective of 40598.9787. Returns the line to print.
pub fn run_anchor(seed: u64, smoke: bool) -> Result<String, String> {
    let w = ANCHOR.generate(seed, smoke);
    let pass = |def: &WorkloadDef| {
        let mut planner = fresh_planner(def, &w, smoke, &mut Counters::default());
        run_stream_pass(def, &w.queries, &mut planner)
    };
    let warm = pass(&ANCHOR);
    let cold = reference_pass(&ANCHOR, &w, smoke);
    if let Some(e) = warm.errors.iter().chain(&cold.errors).next() {
        return Err(e.clone());
    }
    let identical = same_wall(&warm, &cold)?;
    let first_pass = warm.arrival_admitted.iter().filter(|&&a| a).count() - warm.retries_admitted;
    let line = format!(
        "anchor (paper_sim(0.07), seed {seed}, node budget {}): {first_pass} admitted at first submission, objective {:.4} warm / {:.4} cold, decisions {}",
        ANCHOR.node_budget,
        warm.objective,
        cold.objective,
        if identical { "identical" } else { "differ" }
    );
    if seed == crate::DEFAULT_SEED && !smoke {
        let committed = identical
            && first_pass == ANCHOR_ADMITTED
            && (warm.objective - ANCHOR_OBJECTIVE).abs() < 5e-5;
        if !committed {
            return Err(format!(
                "{line} — BENCH_incremental.json has {ANCHOR_ADMITTED} admitted, objective {ANCHOR_OBJECTIVE}, identical decisions"
            ));
        }
    }
    Ok(line)
}

/// `admitted` and `warm_objective` of the committed `BENCH_incremental.json`.
const ANCHOR_ADMITTED: usize = 29;
const ANCHOR_OBJECTIVE: f64 = 40598.9787;

fn report(def: &'static WorkloadDef, opts: &RunOpts, t: Totals) -> Report {
    // A failed check fails every operation of the run: the numbers of a run
    // whose outputs are wrong do not count.
    let failed = if t.errors.is_empty() {
        t.failed_ops
    } else {
        t.ops
    };
    let attempted = t.ops.max(1);
    let submit = summarize(&t.submit_ms);
    let storm = summarize(&t.storm_ms);
    let passes = t.passes.max(1) as f64;
    let traced = t.traced_passes.max(1) as f64;
    let c = &t.counters;
    let p = &c.pivots;
    let x = &t.exact;
    let nodes_per_pass = c.nodes as f64 / passes;
    let iters_per_pass = c.lp_iterations as f64 / passes;
    let solve_ms = t.trace.self_ms("milp.solve") / traced;
    let submit_total_ms = t.trace.total_ms("core.planner.submit");
    let submit_self_ms = t.trace.self_ms("core.planner.submit");

    let value = |name: &str| -> (Option<f64>, usize) {
        let n1 = |v: f64| (Some(v), t.passes);
        match name {
            "setup_s" => (median(&t.setup_s), t.setup_s.len()),
            "ops_per_s" => (Some(ratio(t.ops as f64, t.loop_s)), t.ops),
            "admit_latency_p50_ms" => (submit.p50, submit.samples),
            "admit_latency_p95_ms" => (submit.p95, submit.samples),
            "admitted_share" => (
                Some(ratio(x.arrivals_admitted as f64, x.arrivals as f64)),
                x.arrivals,
            ),
            "resource_cost_per_admitted" => (
                Some(ratio(x.resource_cost, x.admitted_now as f64)),
                x.admitted_now,
            ),
            "peak_rss_mb" => (t.peak_rss_mb, 1),
            "failed_share" => (Some(failed as f64 / attempted as f64), attempted),
            // The two storm figures exist on `churn_storm` only.
            "recovery_p50_ms" => (storm.p50, storm.samples),
            "storm_degraded_share" => (
                is_churn(def).then(|| ratio(x.degraded_or_dropped as f64, x.displaced as f64)),
                x.displaced,
            ),
            "workload.generate_ms" => (median(&t.generate_ms), t.generate_ms.len()),
            "core.query.register_ms" => n1(t.trace.self_ms("core.query.register") / traced),
            "core.query.space_streams_mean" => n1(ratio(
                t.tally.space_streams as f64,
                t.tally.registered as f64,
            )),
            "core.query.space_operators_mean" => n1(ratio(
                t.tally.space_operators as f64,
                t.tally.registered as f64,
            )),
            "core.model.extend_ms" => n1(t.trace.self_ms("core.model.extend") / traced),
            "core.model.reduce_ms" => n1(t.trace.self_ms("core.model.reduce") / traced),
            "core.model.warm_start_ms" => n1(t.trace.self_ms("core.model.warm_start") / traced),
            "core.model.filter_ms" => n1(t.trace.self_ms("core.model.filter") / traced),
            "core.model.filter_calls" => n1(t.trace.count("core.model.filter") as f64 / traced),
            "core.model.decode_install_ms" => {
                n1(t.trace.self_ms("core.model.decode_install") / traced)
            }
            "core.model.vars_mean" => n1(ratio(c.model_vars as f64, c.solver_rounds as f64)),
            "core.model.cons_mean" => n1(ratio(c.model_cons as f64, c.solver_rounds as f64)),
            "core.model.cut_rounds" => n1(t.tally.cut_rounds as f64 / traced),
            "milp.solve_ms" => n1(solve_ms),
            "milp.nodes" => n1(nodes_per_pass),
            "milp.us_per_node" => n1(ratio(solve_ms * 1e3, nodes_per_pass)),
            "milp.us_per_lp_iteration" => n1(ratio(solve_ms * 1e3, iters_per_pass)),
            "milp.share_of_submit" => n1(ratio(t.trace.self_ms("milp.solve"), submit_total_ms)),
            "milp.cache_patches" => n1(c.cache.patches as f64 / passes),
            "milp.cache_rebuilds" => n1(c.cache.rebuilds as f64 / passes),
            "milp.cache_refix_patches" => n1(c.cache.refix_patches as f64 / passes),
            "milp.cache_appended_rows" => n1(c.cache.appended_rows as f64 / passes),
            "milp.cache_patch_rate" => n1(c.cache.patch_rate()),
            "lp.iterations" => n1(iters_per_pass),
            "lp.pivots_phase1" => n1(p.phase1 as f64 / passes),
            "lp.pivots_primal" => n1(p.primal as f64 / passes),
            "lp.pivots_dual" => n1(p.dual as f64 / passes),
            "lp.bound_flips" => n1(p.bound_flips as f64 / passes),
            "lp.refactorizations" => n1(p.refactorizations as f64 / passes),
            "lp.factor_reattaches" => n1(p.factor_reattaches as f64 / passes),
            "lp.ft_updates" => n1(p.ft_updates as f64 / passes),
            "lp.sparse_hit_rate" => n1(p.sparse_hit_rate()),
            "lp.iterations_per_node" => n1(ratio(c.lp_iterations as f64, c.nodes as f64)),
            "lp.distress_events" => n1((p.distress_refactors
                + p.distress_escalations
                + p.distress_cold_restarts) as f64
                / passes),
            "lp.probe_cold_us_per_iter" => (Some(t.probe.cold_us_per_iter()), t.probe.probes),
            "lp.probe_resolve_us_per_iter" => {
                (Some(t.probe.resolve_us_per_iter()), 2 * t.probe.probes)
            }
            "core.planner.submit_ms" => n1(submit_total_ms / traced),
            "core.planner.overhead_ms" => n1(submit_self_ms / traced),
            "core.planner.reuse_hit_rate" => n1(ratio(t.reused as f64, t.submits as f64)),
            "core.planner.retry_admit_rate" => {
                n1(ratio(t.retries_admitted as f64, t.retries as f64))
            }
            "core.planner.warm_cold_identical" => n1(f64::from(u8::from(t.warm_cold_identical))),
            "core.planner.compactions" => n1(t.compactions as f64 / passes),
            "core.planner.incremental_rounds" => n1(t.incremental_rounds as f64 / passes),
            "core.planner.remove_us_p50" => {
                (Some(median(&t.remove_us).unwrap_or(0.0)), t.remove_us.len())
            }
            "core.recovery.storm_ms" => n1(t.storm_ms.iter().fold(0.0, |a, b| a + b) / passes),
            "core.recovery.displaced" => n1(t.storms.displaced as f64 / passes),
            "core.recovery.replanned_rate" => {
                n1(ratio(t.storms.replanned as f64, t.storms.displaced as f64))
            }
            "core.recovery.nodes_spent" => n1(t.storms.nodes_spent as f64 / passes),
            "core.recovery.rehomed_feeds" => n1(t.storms.rehomed as f64 / passes),
            "dsps.validate_ms" => n1(t.validate_ms / passes),
            "trace.overhead_pct" => {
                n1(100.0 * ratio(t.traced_loop_s - t.twin_loop_s, t.twin_loop_s))
            }
            "trace.coverage_pct" => n1(coverage_pct(&t.trace)),
            "trace.equivalent" => n1(f64::from(u8::from(t.equivalent && t.traced_passes > 0))),
            "trace.spans" => n1(t.spans as f64 / traced),
            "trace.passes" => n1(t.traced_passes as f64),
            other => unreachable!("metric `{other}` has no definition in run.rs"),
        }
    };

    // The untraced run reports the end-to-end set and its three extras;
    // the traced run reports every per-layer metric.
    let defs: Vec<&'static MetricDef> = if opts.trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().chain(&END_TO_END_EXTRA).collect()
    };
    let metrics = defs
        .into_iter()
        .map(|def| {
            let (value, samples) = value(def.name);
            Reported {
                def,
                value,
                samples,
            }
        })
        .collect();
    Report {
        workload: def.name,
        seed: opts.seed,
        trace: opts.trace,
        passes: t.passes,
        fixed_passes: t.exact.passes,
        attempted,
        failed,
        correct: t.errors.is_empty() && failed == 0,
        errors: t.errors,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn smoke(trace: bool) -> RunOpts {
        RunOpts {
            seed: 20629,
            seconds: 0.0,
            trace,
            smoke: true,
            spans: None,
        }
    }

    /// The `--smoke` run, traced: one truncated instance per workload
    /// through every code path — the real pass, the output checks, the
    /// warm/cold reference, the second pass with spans and its equivalence
    /// check, the LP probe.
    #[test]
    fn smoke_run_exercises_every_path_and_passes_every_check() {
        for def in &WORKLOADS {
            let traced = run_workload(def, &smoke(true));
            assert!(traced.correct, "{}: {:?}", def.name, traced.errors);
            assert_eq!((traced.failed, traced.passes), (0, 1));
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let get = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.def.name == name)
                    .and_then(|m| m.value)
                    .unwrap_or_else(|| panic!("{} lacks {name}", def.name))
            };
            assert_eq!(get("trace.equivalent"), 1.0, "{}", def.name);
            assert!(get("core.planner.submit_ms") > 0.0);
            if is_churn(def) {
                assert!(get("core.recovery.storm_ms") > 0.0);
                assert!(get("core.planner.remove_us_p50") > 0.0);
            } else {
                assert!(
                    get("trace.coverage_pct") >= MIN_COVERAGE_PCT,
                    "{}",
                    def.name
                );
                assert!(get("milp.solve_ms") > 0.0);
                assert!(get("core.query.space_streams_mean") >= 2.0);
            }
            if def.lp_probe {
                assert!(get("lp.probe_cold_us_per_iter") > 0.0, "{}", def.name);
            }
        }
    }

    /// The truncated anchor: both paths run and hit the same wall (the
    /// committed figures are for the whole instance only).
    #[test]
    fn anchor_smoke_plays_both_paths() {
        let line = run_anchor(crate::DEFAULT_SEED, true).unwrap();
        assert!(line.contains("node budget 200"), "{line}");
        let a = PassLog {
            admitted_now: 10,
            objective: 100.0,
            ..PassLog::default()
        };
        let wall = |admitted_now, objective| {
            same_wall(
                &a,
                &PassLog {
                    admitted_now,
                    objective,
                    ..PassLog::default()
                },
            )
        };
        assert_eq!(wall(10, 101.0), Ok(true));
        assert!(wall(10, 103.0).is_err() && wall(14, 100.0).is_err());
    }

    /// The untraced report: the end-to-end set plus its extras, every one
    /// with a value except the withheld p95 — and, off `churn_storm`, the
    /// two storm figures.
    #[test]
    fn untraced_smoke_reports_the_end_to_end_set() {
        let def = crate::workloads::find("churn_storm").unwrap();
        let plain = run_workload(def, &smoke(false));
        assert!(plain.correct, "{:?}", plain.errors);
        assert_eq!(
            plain.metrics.len(),
            END_TO_END.len() + END_TO_END_EXTRA.len()
        );
        assert_eq!((plain.passes, plain.fixed_passes), (1, 1));
        for m in &plain.metrics {
            // p95 is withheld under 200 samples; everything else reads.
            assert_eq!(
                m.value.is_some(),
                m.def.name != "admit_latency_p95_ms",
                "{}",
                m.def.name
            );
        }
        let stream = run_workload(crate::workloads::find("dup_stream").unwrap(), &smoke(false));
        let withheld: Vec<&str> = stream
            .metrics
            .iter()
            .filter(|m| m.value.is_none())
            .map(|m| m.def.name)
            .collect();
        // 150 submissions are too few for a p95; the storm figures do not
        // exist off `churn_storm`.
        assert_eq!(
            withheld,
            [
                "admit_latency_p95_ms",
                "recovery_p50_ms",
                "storm_degraded_share"
            ]
        );

        let line = crate::compare::result_line(&plain);
        let json = crate::compare::Json::parse(&line).unwrap();
        let crate::compare::Json::Obj(fields) = &json else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let crate::compare::Json::Obj(metrics) = json.get("metrics").unwrap() else {
            panic!("metrics is not an object: {line}");
        };
        // Exactly the `end_to_end` set, minus the withheld p95.
        assert_eq!(metrics.len(), END_TO_END.len() - 1);
        assert!(metrics
            .iter()
            .all(|(k, _)| crate::metrics::find_e2e(k).is_some()));
    }
}
