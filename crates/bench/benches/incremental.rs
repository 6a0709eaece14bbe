//! Warm-started incremental re-planning vs. the cold-start path.
//!
//! Sequentially submits a 50-query paper-style workload twice with
//! identical budgets:
//!
//! - **cold**: the paper's behaviour — a fresh MILP is built for every
//!   submission and every LP relaxation cold-starts from the slack
//!   identity basis (`reuse_solver_context = false`);
//! - **warm**: this repo's incremental path — one persistent model
//!   skeleton extended per query, a compressed-LP cache rebuilt
//!   incrementally per round and extended in place by its cut rounds,
//!   root LPs warm-started from the previous
//!   submission's basis, child nodes re-solved by *dual simplex* from
//!   their parent's basis (`reuse_solver_context = true`, the default).
//!
//! The workload is the §V-A simulation at a saturating scale, so later
//! submissions hit the admission wall — the regime where the paper's own
//! scalability limit (Fig. 7: solver latency) appears. After the 50-query
//! pass, every rejected query is re-submitted once (the admission-retry
//! wave): those rounds revisit plan spaces the skeleton already covers, so
//! they isolate the *cross-submission* warm path — the persistent
//! skeleton, a compressed LP that folds exactly the bound-fixed columns
//! (rebuilt once per retry, reading only the rows of what moved) and a
//! root basis lifted from the previous round, versus a full fresh build
//! per retry on the cold path.
//! Asserts that the two paths take byte-identical admit/reject decisions
//! across the whole sequence, that the warm path is at least 2x faster on
//! total solve time (the wall time of the `submit` calls, measured here),
//! that warm bound-change re-solves actually run as dual pivots instead of
//! phase-I recovery, that no planning round lowers its compressed LP more
//! than once (its cut rounds append), and that child nodes re-attach their
//! parent's factorisation (the per-phase counters make all of that
//! checkable),
//! then emits `BENCH_incremental.json` for cross-run tracking.

use std::time::{Duration, Instant};

use sqpr_bench::harness::emit_json;
use sqpr_core::{CacheStats, PivotCounts, PlannerConfig, SolveBudget, SqprPlanner};
use sqpr_dsps::StreamId;
use sqpr_workload::text::{read_json_file, Table, Value};
use sqpr_workload::{generate, WorkloadSpec};

const QUERIES: usize = 50;
const SCALE: f64 = 0.07;

/// Warm-path hyper-sparse hit-rate floor: the warm path's solves are
/// dominated by dual re-solves whose unit-seed BTRANs and short-support
/// FTRANs are exactly what the sparse kernels exist for. Measured ~0.95;
/// asserted well below to absorb workload drift without hiding a
/// dispatch regression.
const MIN_WARM_SPARSE_HIT_RATE: f64 = 0.60;

/// Allowed warm LP-iteration regression vs. the committed baseline. The
/// band used to be ±15% because model build iterated hash maps — LP row
/// order, and with it pivot tie-breaks, varied per process. The model's
/// maps are ordered (`BTreeMap`) now, so identical inputs build
/// byte-identical LPs and the sequence is deterministic; the remaining
/// band only absorbs cross-platform float-rounding differences.
const WARM_ITER_REGRESSION: f64 = 1.05;

/// Allowed warm refactorisation regression vs. the committed baseline:
/// child nodes re-attach their parent's factors, so a refactorisation
/// climb-back means the reattach path (or the pivot cap) regressed. Same
/// band as the iteration guard, tight for the same reason.
const WARM_REFACTOR_REGRESSION: f64 = 1.05;

/// The committed baseline JSON, if one is reachable (repo root when cargo
/// runs benches from the package root; override with
/// `SQPR_BENCH_BASELINE`). Absent means the baseline checks are skipped; a
/// malformed file fails the bench, naming the file and the line.
fn baseline() -> Option<Table> {
    let path = std::env::var("SQPR_BENCH_BASELINE")
        .unwrap_or_else(|_| "../../BENCH_incremental.json".into());
    read_json_file(std::path::Path::new(&path)).unwrap_or_else(|e| panic!("{e}"))
}

struct Run {
    total_solve: Duration,
    /// Admit/reject decisions across the whole sequence: the 50-query
    /// first pass, then the interleaved admission retries in retry order.
    admitted: Vec<bool>,
    /// Admissions of the first pass alone (the paper-workload figure).
    first_pass_admitted: usize,
    objective: f64,
    lp_iterations: usize,
    pivots: PivotCounts,
    cache: CacheStats,
    /// Retry-wave deltas (the cross-submission warm path in isolation).
    wave_pivots: PivotCounts,
    wave_cache: CacheStats,
    wave_solve: Duration,
    nodes: usize,
}

fn run(w: &sqpr_workload::Workload, reuse_solver_context: bool) -> Run {
    let mut cfg = PlannerConfig::new(&w.catalog);
    cfg.budget = SolveBudget::nodes(200);
    cfg.reuse_solver_context = reuse_solver_context;
    let mut planner = SqprPlanner::new(w.catalog.clone(), cfg);
    let mut first_admitted = Vec::with_capacity(w.queries.len());
    let mut retry_admitted = Vec::new();
    let mut retry_outcomes: Vec<usize> = Vec::new();

    // The 50-query pass, with an admission-retry round per rejection: a
    // rejected query is re-submitted once, right after the next arrival
    // (the paper's short-patience admission retry — maybe the newcomer's
    // re-planning freed what the rejected query needed). The retried plan
    // space is already covered by the skeleton, so retries isolate the
    // *cross-submission* reuse path: no skeleton growth, one lowering of
    // the compressed LP per round plus a lifted root basis, versus a full
    // fresh build per retry on the cold path.
    let mut pending_retry: Option<usize> = None;
    // Solve time is the wall time of the `submit` calls themselves.
    let mut total_solve = Duration::ZERO;
    let mut wave_solve = Duration::ZERO;
    let mut submit = |planner: &mut SqprPlanner, bases: &[StreamId]| {
        let started = Instant::now();
        let admitted = planner.submit(bases).expect("valid bases").admitted;
        let took = started.elapsed();
        total_solve += took;
        (admitted, took)
    };
    for (i, q) in w.queries.iter().enumerate() {
        let (adm, _) = submit(&mut planner, q);
        first_admitted.push(adm);
        if let Some(r) = pending_retry.take() {
            let (adm, took) = submit(&mut planner, &w.queries[r]);
            retry_admitted.push(adm);
            wave_solve += took;
            retry_outcomes.push(planner.outcomes().len() - 1);
        }
        if !adm {
            pending_retry = Some(i);
        }
    }
    if let Some(r) = pending_retry.take() {
        let (adm, took) = submit(&mut planner, &w.queries[r]);
        retry_admitted.push(adm);
        wave_solve += took;
        retry_outcomes.push(planner.outcomes().len() - 1);
    }
    assert!(planner.state().is_valid(planner.catalog()));
    let first_pass_admitted = first_admitted.iter().filter(|&&b| b).count();

    let mut pivots = PivotCounts::default();
    let mut cache = CacheStats::default();
    let mut wave_pivots = PivotCounts::default();
    let mut wave_cache = CacheStats::default();
    for (k, o) in planner.outcomes().iter().enumerate() {
        // The cache's per-round contract, on both paths: a planning round
        // lowers the compressed LP at most once, and its cut rounds
        // append rows to that lowering.
        assert!(
            o.lp_cache.rebuilds <= 1,
            "round {k} lowered the compressed LP {} times: {:?}",
            o.lp_cache.rebuilds,
            o.lp_cache
        );
        pivots.merge(&o.lp_pivots);
        cache.add(&o.lp_cache);
        if retry_outcomes.contains(&k) {
            wave_pivots.merge(&o.lp_pivots);
            wave_cache.add(&o.lp_cache);
        }
    }
    let mut admitted = first_admitted;
    admitted.extend_from_slice(&retry_admitted);
    Run {
        total_solve,
        admitted,
        first_pass_admitted,
        objective: planner.deployment_objective(),
        lp_iterations: planner.outcomes().iter().map(|o| o.lp_iterations).sum(),
        pivots,
        cache,
        wave_pivots,
        wave_cache,
        wave_solve,
        nodes: planner.outcomes().iter().map(|o| o.nodes).sum(),
    }
}

fn main() {
    let mut spec = WorkloadSpec::paper_sim(SCALE);
    spec.queries = QUERIES;
    let w = generate(&spec);

    // Warm-up pass so the first measured run does not pay one-time costs
    // (page faults, lazy allocation).
    let _ = run(&w, false);

    let cold = run(&w, false);
    let warm = run(&w, true);

    let speedup = cold.total_solve.as_secs_f64() / warm.total_solve.as_secs_f64();
    let first_pass_speedup = (cold.total_solve - cold.wave_solve).as_secs_f64()
        / (warm.total_solve - warm.wave_solve).as_secs_f64();
    // Neutral 1.0 when a tuning admits everything and no retries ran.
    let wave_speedup = if warm.wave_solve.is_zero() {
        1.0
    } else {
        cold.wave_solve.as_secs_f64() / warm.wave_solve.as_secs_f64()
    };
    let admitted = warm.first_pass_admitted;
    let retries = warm.admitted.len() - QUERIES;
    println!(
        "\n== bench group: incremental ({QUERIES} queries + {retries} retries, scale {SCALE}) =="
    );
    println!(
        "{:<28} {:>12} {:>10} {:>10} {:>10} {:>10} {:>7} {:>9} {:>8} {:>9}",
        "path",
        "total solve",
        "lp iters",
        "phase-I",
        "primal",
        "dual",
        "flips",
        "h-saved",
        "nodes",
        "admitted"
    );
    for (label, r) in [
        ("cold (fresh MILP per query)", &cold),
        ("warm (incremental)", &warm),
    ] {
        println!(
            "{:<28} {:>12} {:>10} {:>10} {:>10} {:>10} {:>7} {:>9} {:>8} {:>9}",
            label,
            format!("{:.1?}", r.total_solve),
            r.lp_iterations,
            r.pivots.phase1,
            r.pivots.primal,
            r.pivots.dual,
            r.pivots.bound_flips,
            r.pivots.harris_degenerate_saved,
            r.nodes,
            r.first_pass_admitted,
        );
    }
    println!(
        "speedup: {speedup:.2}x total ({first_pass_speedup:.2}x first pass, \
         {wave_speedup:.2}x retry wave)"
    );
    println!(
        "{:<28} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "sparsity", "sparse hit", "mean dens", "sparse", "dense", "FT upd", "refactor", "reattach"
    );
    for (label, r) in [
        ("cold (fresh MILP per query)", &cold),
        ("warm (incremental)", &warm),
    ] {
        println!(
            "{:<28} {:>11.1}% {:>11.1}% {:>10} {:>10} {:>10} {:>10} {:>10}",
            label,
            100.0 * r.pivots.sparse_hit_rate(),
            100.0 * r.pivots.mean_solve_density(),
            r.pivots.sparse_solves,
            r.pivots.dense_solves,
            r.pivots.ft_updates,
            r.pivots.refactorizations,
            r.pivots.factor_reattaches,
        );
    }
    println!(
        "{:<28} {:>12} {:>10} {:>10} {:>10}",
        "lp cache", "patch rate", "patches", "rebuilds", "rows appd"
    );
    for (label, r) in [
        ("cold (fresh MILP per query)", &cold),
        ("warm (incremental)", &warm),
    ] {
        println!(
            "{:<28} {:>11.1}% {:>10} {:>10} {:>10}",
            label,
            100.0 * r.cache.patch_rate(),
            r.cache.patches,
            r.cache.rebuilds,
            r.cache.appended_rows,
        );
    }
    println!(
        "retry wave (warm): cache {:?}, refactor {} ({} re-attached)",
        warm.wave_cache, warm.wave_pivots.refactorizations, warm.wave_pivots.factor_reattaches
    );
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "refactor causes", "no cache", "basis", "pivot cap", "fill", "rejected", "drift"
    );
    for (label, p) in [
        ("cold (fresh MILP per query)", &cold.pivots),
        ("warm (incremental)", &warm.pivots),
        ("warm retry wave", &warm.wave_pivots),
    ] {
        println!(
            "{label:<28} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            p.refactor_no_cache,
            p.refactor_basis_changed,
            p.refactor_pivot_cap,
            p.refactor_update_fill,
            p.refactor_rejected_update,
            p.refactor_drift
        );
        assert_eq!(
            p.refactor_causes(),
            p.refactorizations,
            "every refactorisation has exactly one cause"
        );
    }

    // The identity verdict is *recorded before asserting*, so a divergence
    // leaves a `false` in the artifact for postmortem while still failing
    // the CI bench smoke (the assert below aborts with nonzero status).
    let outcomes_identical = warm.admitted == cold.admitted;
    emit_json(
        "incremental",
        &Table::new()
            .with("bench", Value::Str("incremental".into()))
            .with("queries", QUERIES)
            .with("scale", Value::Float(SCALE))
            .with("cold_solve_s", Value::Float(cold.total_solve.as_secs_f64()))
            .with("warm_solve_s", Value::Float(warm.total_solve.as_secs_f64()))
            .with(
                "cold_wave_solve_s",
                Value::Float(cold.wave_solve.as_secs_f64()),
            )
            .with(
                "warm_wave_solve_s",
                Value::Float(warm.wave_solve.as_secs_f64()),
            )
            .with("speedup", Value::Float(speedup))
            .with("first_pass_speedup", Value::Float(first_pass_speedup))
            .with("wave_speedup", Value::Float(wave_speedup))
            .with("cold_lp_iterations", cold.lp_iterations)
            .with("warm_lp_iterations", warm.lp_iterations)
            .with("cold_pivots_phase1", cold.pivots.phase1)
            .with("cold_pivots_primal", cold.pivots.primal)
            .with("cold_pivots_dual", cold.pivots.dual)
            .with("warm_pivots_phase1", warm.pivots.phase1)
            .with("warm_pivots_primal", warm.pivots.primal)
            .with("warm_pivots_dual", warm.pivots.dual)
            .with("cold_bound_flips", cold.pivots.bound_flips)
            .with("warm_bound_flips", warm.pivots.bound_flips)
            .with(
                "cold_harris_degenerate_saved",
                cold.pivots.harris_degenerate_saved,
            )
            .with(
                "warm_harris_degenerate_saved",
                warm.pivots.harris_degenerate_saved,
            )
            .with("cold_sparse_solves", cold.pivots.sparse_solves)
            .with("cold_dense_solves", cold.pivots.dense_solves)
            .with(
                "cold_sparse_hit_rate",
                Value::Float(cold.pivots.sparse_hit_rate()),
            )
            .with(
                "cold_mean_solve_density",
                Value::Float(cold.pivots.mean_solve_density()),
            )
            .with("cold_ft_updates", cold.pivots.ft_updates)
            .with("cold_pfi_updates", cold.pivots.pfi_updates)
            .with("cold_refactorizations", cold.pivots.refactorizations)
            .with("cold_refactor_no_cache", cold.pivots.refactor_no_cache)
            .with(
                "cold_refactor_basis_changed",
                cold.pivots.refactor_basis_changed,
            )
            .with("cold_refactor_pivot_cap", cold.pivots.refactor_pivot_cap)
            .with(
                "cold_refactor_update_fill",
                cold.pivots.refactor_update_fill,
            )
            .with(
                "cold_refactor_rejected_update",
                cold.pivots.refactor_rejected_update,
            )
            .with("cold_refactor_drift", cold.pivots.refactor_drift)
            .with("warm_sparse_solves", warm.pivots.sparse_solves)
            .with("warm_dense_solves", warm.pivots.dense_solves)
            .with(
                "warm_sparse_hit_rate",
                Value::Float(warm.pivots.sparse_hit_rate()),
            )
            .with(
                "warm_mean_solve_density",
                Value::Float(warm.pivots.mean_solve_density()),
            )
            .with("warm_ft_updates", warm.pivots.ft_updates)
            .with("warm_pfi_updates", warm.pivots.pfi_updates)
            .with("warm_refactorizations", warm.pivots.refactorizations)
            .with("warm_refactor_no_cache", warm.pivots.refactor_no_cache)
            .with(
                "warm_refactor_basis_changed",
                warm.pivots.refactor_basis_changed,
            )
            .with("warm_refactor_pivot_cap", warm.pivots.refactor_pivot_cap)
            .with(
                "warm_refactor_update_fill",
                warm.pivots.refactor_update_fill,
            )
            .with(
                "warm_refactor_rejected_update",
                warm.pivots.refactor_rejected_update,
            )
            .with("warm_refactor_drift", warm.pivots.refactor_drift)
            .with("cold_factor_reattaches", cold.pivots.factor_reattaches)
            .with("warm_factor_reattaches", warm.pivots.factor_reattaches)
            .with("warm_cache_rebuilds", warm.cache.rebuilds)
            .with("warm_cache_patches", warm.cache.patches)
            .with("warm_cache_appended_rows", warm.cache.appended_rows)
            .with(
                "warm_cache_patch_rate",
                Value::Float(warm.cache.patch_rate()),
            )
            .with("retries", retries)
            .with("warm_wave_cache_rebuilds", warm.wave_cache.rebuilds)
            .with("warm_wave_cache_patches", warm.wave_cache.patches)
            .with(
                "warm_wave_refactorizations",
                warm.wave_pivots.refactorizations,
            )
            .with(
                "warm_wave_refactor_no_cache",
                warm.wave_pivots.refactor_no_cache,
            )
            .with(
                "warm_wave_refactor_basis_changed",
                warm.wave_pivots.refactor_basis_changed,
            )
            .with(
                "warm_wave_refactor_pivot_cap",
                warm.wave_pivots.refactor_pivot_cap,
            )
            .with(
                "warm_wave_refactor_update_fill",
                warm.wave_pivots.refactor_update_fill,
            )
            .with(
                "warm_wave_refactor_rejected_update",
                warm.wave_pivots.refactor_rejected_update,
            )
            .with("warm_wave_refactor_drift", warm.wave_pivots.refactor_drift)
            .with(
                "warm_wave_factor_reattaches",
                warm.wave_pivots.factor_reattaches,
            )
            .with("warm_wave_lp_iterations", warm.wave_pivots.total())
            .with("cold_wave_lp_iterations", cold.wave_pivots.total())
            .with(
                "warm_first_pass_lp_iterations",
                warm.pivots.total() - warm.wave_pivots.total(),
            )
            .with(
                "warm_first_pass_refactorizations",
                warm.pivots.refactorizations - warm.wave_pivots.refactorizations,
            )
            .with("cold_nodes", cold.nodes)
            .with("warm_nodes", warm.nodes)
            .with("admitted", admitted)
            .with("outcomes_identical", Value::Bool(outcomes_identical))
            .with("cold_objective", Value::Float(cold.objective))
            .with("warm_objective", Value::Float(warm.objective)),
    );

    // Acceptance: identical admit/reject decisions, comparable deployment
    // quality, >= 2x on total solve time.
    assert!(
        outcomes_identical,
        "warm and cold paths must take identical admit/reject decisions"
    );
    assert!(
        (warm.objective - cold.objective).abs() <= 0.02 * (1.0 + cold.objective.abs()),
        "deployment objectives diverged: warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    // The dual simplex must carry the warm path's bound-change re-solves:
    // dual pivots present, phase-I demoted to a small minority (stale-root
    // repairs), and the cold path untouched by the dual machinery.
    assert!(
        warm.pivots.dual > 0,
        "warm path took no dual pivots — bound-change re-solves regressed to phase-I"
    );
    assert!(
        warm.pivots.dual > warm.pivots.phase1,
        "dual pivots ({}) must carry the warm path, not phase-I ({})",
        warm.pivots.dual,
        warm.pivots.phase1
    );
    assert!(
        warm.pivots.phase1 * 4 < cold.pivots.phase1,
        "warm phase-I did not shrink: warm {} vs cold {}",
        warm.pivots.phase1,
        cold.pivots.phase1
    );
    // The tentpole acceptance floor is a 30% warm-iteration reduction vs
    // the pre-dual-simplex baseline; this asserts the stronger invariant
    // the current implementation actually delivers (warm < cold / 2,
    // measured ~cold / 14) so a partial regression still trips CI. Relax
    // deliberately if a future change trades iterations for wall clock.
    assert!(
        warm.lp_iterations * 2 < cold.lp_iterations,
        "warm path should need far fewer LP iterations: warm {} vs cold {}",
        warm.lp_iterations,
        cold.lp_iterations
    );
    // Hyper-sparsity must actually carry the warm path (the dispatch
    // falling back to dense everywhere would silently lose the tentpole),
    // and the Forrest–Tomlin default must be doing the updates.
    assert!(
        warm.pivots.sparse_hit_rate() >= MIN_WARM_SPARSE_HIT_RATE,
        "warm sparse-path hit rate too low: {:.1}% < {:.0}%",
        100.0 * warm.pivots.sparse_hit_rate(),
        100.0 * MIN_WARM_SPARSE_HIT_RATE
    );
    assert!(
        warm.pivots.ft_updates > warm.pivots.pfi_updates,
        "Forrest–Tomlin updates ({}) must dominate PFI fallbacks ({})",
        warm.pivots.ft_updates,
        warm.pivots.pfi_updates
    );
    // Child nodes must re-attach their parent's factorisation.
    assert!(
        warm.pivots.factor_reattaches > 0,
        "warm path re-attached no basis factorisations"
    );
    // The wave-specific invariants only exist when the workload saturates
    // (a tuning that admits all 50 queries schedules no retries).
    if retries > 0 {
        assert!(
            warm.wave_pivots.factor_reattaches > 0,
            "retry wave re-attached no factors: child nodes no longer \
             start from their parent's factorisation"
        );
    }
    // Warm LP iterations / refactorisations vs. the committed baseline: a
    // regression beyond the noise band fails the smoke (refresh the
    // committed BENCH_incremental.json when the regression is intentional).
    let baseline = baseline();
    let committed = |key: &str| baseline.as_ref()?.get(key)?.as_f64();
    if let Some(baseline) = committed("warm_lp_iterations") {
        assert!(
            (warm.lp_iterations as f64) <= WARM_ITER_REGRESSION * baseline,
            "warm LP iterations regressed >{:.0}% vs committed baseline: {} vs {baseline}",
            100.0 * (WARM_ITER_REGRESSION - 1.0),
            warm.lp_iterations
        );
    } else {
        println!("(no committed baseline found; warm-iteration regression check skipped)");
    }
    if let Some(baseline) = committed("warm_refactorizations") {
        assert!(
            (warm.pivots.refactorizations as f64) <= WARM_REFACTOR_REGRESSION * baseline,
            "warm refactorisations regressed >{:.0}% vs committed baseline: {} vs {baseline}",
            100.0 * (WARM_REFACTOR_REGRESSION - 1.0),
            warm.pivots.refactorizations
        );
    }
    // The wall-clock assertions are skippable for noisy shared runners
    // (SQPR_BENCH_LENIENT=1): timing jitter there must not fail CI, while
    // the deterministic assertions above always hold. The first pass keeps
    // the historical 2x floor; the total is softer because the retry wave
    // deliberately adds rejection rounds — full-budget bound proofs on
    // *both* paths (the ROADMAP's budget-burn item), where the warm path's
    // structural savings are diluted by per-node solve work.
    if std::env::var("SQPR_BENCH_LENIENT").is_err() {
        assert!(
            first_pass_speedup >= 2.0,
            "warm first pass must be >= 2x faster (got {first_pass_speedup:.2}x)"
        );
        assert!(
            speedup >= 1.5,
            "warm path must be >= 1.5x faster overall (got {speedup:.2}x)"
        );
    }
}
