//! Warm-started incremental re-planning vs. the cold-start path.
//!
//! Sequentially submits a 50-query paper-style workload twice with
//! identical budgets:
//!
//! - **cold**: the paper's behaviour — a fresh MILP is built for every
//!   submission and every LP relaxation cold-starts from the slack
//!   identity basis (`reuse_solver_context = false`);
//! - **warm**: this repo's incremental path — one persistent model
//!   skeleton extended per query, a compressed-LP cache patched in place
//!   across B&B constructions, root LPs warm-started from the previous
//!   submission's basis, child nodes re-solved by *dual simplex* from
//!   their parent's basis (`reuse_solver_context = true`, the default).
//!
//! The workload is the §V-A simulation at a saturating scale, so later
//! submissions hit the admission wall — the regime where the paper's own
//! scalability limit (Fig. 7: solver latency) appears. After the 50-query
//! pass, every rejected query is re-submitted once (the admission-retry
//! wave): those rounds revisit plan spaces the skeleton already covers, so
//! they isolate the *cross-submission* warm path — compressed-LP bound
//! patches (fixed-class keying plus the keep-rejected-free fold
//! exemptions) and re-attached root factorisations, versus a full fresh
//! build per retry on the cold path. Asserts that the two paths take
//! byte-identical admit/reject decisions across the whole sequence, that
//! the warm path is at least 2x faster on total solve time (the wall time
//! of the `submit` calls, measured here), that warm bound-change re-solves
//! actually run as dual pivots instead of phase-I recovery, and that the
//! retry wave is served entirely by cache patches with factor
//! re-attachment (the per-phase counters make all of that checkable),
//! then emits `BENCH_incremental.json` for cross-run tracking.

use std::time::{Duration, Instant};

use sqpr_bench::harness::{emit_json, Json};
use sqpr_core::{CacheStats, PivotCounts, PlannerConfig, SolveBudget, SqprPlanner};
use sqpr_dsps::StreamId;
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
/// root solves re-attach the previous construction's factors across cut
/// rounds and bound-patch submissions, so a refactorisation climb-back
/// means the lifted token (or the reattach path) regressed. Same band as
/// the iteration guard, tight for the same reason.
const WARM_REFACTOR_REGRESSION: f64 = 1.05;

/// Warm-path compressed-LP cache patch-rate floor: with fixed-class
/// keying, rebuilds happen only on structural-change rounds (skeleton
/// growth) — cut rounds, re-fixing rounds and the whole admission-retry
/// wave patch. Measured ~0.74 on this workload; asserted well below to
/// absorb drift while catching a return to set-identity keying (which
/// only same-set cut rounds survived).
const MIN_WARM_CACHE_PATCH_RATE: f64 = 0.55;

/// Reads a numeric field out of the committed baseline JSON, if one is
/// reachable (repo root when cargo runs benches from the package root;
/// override with `SQPR_BENCH_BASELINE`, skip when absent).
fn baseline_num(key: &str) -> Option<f64> {
    let path = std::env::var("SQPR_BENCH_BASELINE")
        .unwrap_or_else(|_| "../../BENCH_incremental.json".into());
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let tail = &text[at..];
    let end = tail.find([',', '}'])?;
    tail[..end].trim().parse().ok()
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
    // space is already covered by the skeleton and still inside the warm
    // path's keep-rejected-free window, so retries isolate the
    // *cross-submission* reuse path: compressed-LP bound patches over a
    // re-fixed class plus re-attached factors, versus a full fresh build
    // per retry on the cold path.
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
        "{:<28} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "lp cache", "patch rate", "patches", "refix", "rebuilds", "rows appd"
    );
    for (label, r) in [
        ("cold (fresh MILP per query)", &cold),
        ("warm (incremental)", &warm),
    ] {
        println!(
            "{:<28} {:>11.1}% {:>10} {:>10} {:>10} {:>10}",
            label,
            100.0 * r.cache.patch_rate(),
            r.cache.patches,
            r.cache.refix_patches,
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
        &Json::obj(vec![
            ("bench", Json::Str("incremental".into())),
            ("queries", Json::Num(QUERIES as f64)),
            ("scale", Json::Num(SCALE)),
            ("cold_solve_s", Json::Num(cold.total_solve.as_secs_f64())),
            ("warm_solve_s", Json::Num(warm.total_solve.as_secs_f64())),
            (
                "cold_wave_solve_s",
                Json::Num(cold.wave_solve.as_secs_f64()),
            ),
            (
                "warm_wave_solve_s",
                Json::Num(warm.wave_solve.as_secs_f64()),
            ),
            ("speedup", Json::Num(speedup)),
            ("first_pass_speedup", Json::Num(first_pass_speedup)),
            ("wave_speedup", Json::Num(wave_speedup)),
            ("cold_lp_iterations", Json::Num(cold.lp_iterations as f64)),
            ("warm_lp_iterations", Json::Num(warm.lp_iterations as f64)),
            ("cold_pivots_phase1", Json::Num(cold.pivots.phase1 as f64)),
            ("cold_pivots_primal", Json::Num(cold.pivots.primal as f64)),
            ("cold_pivots_dual", Json::Num(cold.pivots.dual as f64)),
            ("warm_pivots_phase1", Json::Num(warm.pivots.phase1 as f64)),
            ("warm_pivots_primal", Json::Num(warm.pivots.primal as f64)),
            ("warm_pivots_dual", Json::Num(warm.pivots.dual as f64)),
            (
                "cold_bound_flips",
                Json::Num(cold.pivots.bound_flips as f64),
            ),
            (
                "warm_bound_flips",
                Json::Num(warm.pivots.bound_flips as f64),
            ),
            (
                "cold_harris_degenerate_saved",
                Json::Num(cold.pivots.harris_degenerate_saved as f64),
            ),
            (
                "warm_harris_degenerate_saved",
                Json::Num(warm.pivots.harris_degenerate_saved as f64),
            ),
            (
                "cold_sparse_solves",
                Json::Num(cold.pivots.sparse_solves as f64),
            ),
            (
                "cold_dense_solves",
                Json::Num(cold.pivots.dense_solves as f64),
            ),
            (
                "cold_sparse_hit_rate",
                Json::Num(cold.pivots.sparse_hit_rate()),
            ),
            (
                "cold_mean_solve_density",
                Json::Num(cold.pivots.mean_solve_density()),
            ),
            ("cold_ft_updates", Json::Num(cold.pivots.ft_updates as f64)),
            (
                "cold_pfi_updates",
                Json::Num(cold.pivots.pfi_updates as f64),
            ),
            (
                "cold_refactorizations",
                Json::Num(cold.pivots.refactorizations as f64),
            ),
            (
                "cold_refactor_no_cache",
                Json::Num(cold.pivots.refactor_no_cache as f64),
            ),
            (
                "cold_refactor_basis_changed",
                Json::Num(cold.pivots.refactor_basis_changed as f64),
            ),
            (
                "cold_refactor_pivot_cap",
                Json::Num(cold.pivots.refactor_pivot_cap as f64),
            ),
            (
                "cold_refactor_update_fill",
                Json::Num(cold.pivots.refactor_update_fill as f64),
            ),
            (
                "cold_refactor_rejected_update",
                Json::Num(cold.pivots.refactor_rejected_update as f64),
            ),
            (
                "cold_refactor_drift",
                Json::Num(cold.pivots.refactor_drift as f64),
            ),
            (
                "warm_sparse_solves",
                Json::Num(warm.pivots.sparse_solves as f64),
            ),
            (
                "warm_dense_solves",
                Json::Num(warm.pivots.dense_solves as f64),
            ),
            (
                "warm_sparse_hit_rate",
                Json::Num(warm.pivots.sparse_hit_rate()),
            ),
            (
                "warm_mean_solve_density",
                Json::Num(warm.pivots.mean_solve_density()),
            ),
            ("warm_ft_updates", Json::Num(warm.pivots.ft_updates as f64)),
            (
                "warm_pfi_updates",
                Json::Num(warm.pivots.pfi_updates as f64),
            ),
            (
                "warm_refactorizations",
                Json::Num(warm.pivots.refactorizations as f64),
            ),
            (
                "warm_refactor_no_cache",
                Json::Num(warm.pivots.refactor_no_cache as f64),
            ),
            (
                "warm_refactor_basis_changed",
                Json::Num(warm.pivots.refactor_basis_changed as f64),
            ),
            (
                "warm_refactor_pivot_cap",
                Json::Num(warm.pivots.refactor_pivot_cap as f64),
            ),
            (
                "warm_refactor_update_fill",
                Json::Num(warm.pivots.refactor_update_fill as f64),
            ),
            (
                "warm_refactor_rejected_update",
                Json::Num(warm.pivots.refactor_rejected_update as f64),
            ),
            (
                "warm_refactor_drift",
                Json::Num(warm.pivots.refactor_drift as f64),
            ),
            (
                "cold_factor_reattaches",
                Json::Num(cold.pivots.factor_reattaches as f64),
            ),
            (
                "warm_factor_reattaches",
                Json::Num(warm.pivots.factor_reattaches as f64),
            ),
            ("warm_cache_rebuilds", Json::Num(warm.cache.rebuilds as f64)),
            ("warm_cache_patches", Json::Num(warm.cache.patches as f64)),
            (
                "warm_cache_refix_patches",
                Json::Num(warm.cache.refix_patches as f64),
            ),
            (
                "warm_cache_appended_rows",
                Json::Num(warm.cache.appended_rows as f64),
            ),
            ("warm_cache_patch_rate", Json::Num(warm.cache.patch_rate())),
            ("retries", Json::Num(retries as f64)),
            (
                "warm_wave_cache_rebuilds",
                Json::Num(warm.wave_cache.rebuilds as f64),
            ),
            (
                "warm_wave_cache_patches",
                Json::Num(warm.wave_cache.patches as f64),
            ),
            (
                "warm_wave_cache_refix_patches",
                Json::Num(warm.wave_cache.refix_patches as f64),
            ),
            (
                "warm_wave_refactorizations",
                Json::Num(warm.wave_pivots.refactorizations as f64),
            ),
            (
                "warm_wave_refactor_no_cache",
                Json::Num(warm.wave_pivots.refactor_no_cache as f64),
            ),
            (
                "warm_wave_refactor_basis_changed",
                Json::Num(warm.wave_pivots.refactor_basis_changed as f64),
            ),
            (
                "warm_wave_refactor_pivot_cap",
                Json::Num(warm.wave_pivots.refactor_pivot_cap as f64),
            ),
            (
                "warm_wave_refactor_update_fill",
                Json::Num(warm.wave_pivots.refactor_update_fill as f64),
            ),
            (
                "warm_wave_refactor_rejected_update",
                Json::Num(warm.wave_pivots.refactor_rejected_update as f64),
            ),
            (
                "warm_wave_refactor_drift",
                Json::Num(warm.wave_pivots.refactor_drift as f64),
            ),
            (
                "warm_wave_factor_reattaches",
                Json::Num(warm.wave_pivots.factor_reattaches as f64),
            ),
            (
                "warm_wave_lp_iterations",
                Json::Num(warm.wave_pivots.total() as f64),
            ),
            (
                "cold_wave_lp_iterations",
                Json::Num(cold.wave_pivots.total() as f64),
            ),
            (
                "warm_first_pass_lp_iterations",
                Json::Num((warm.pivots.total() - warm.wave_pivots.total()) as f64),
            ),
            (
                "warm_first_pass_refactorizations",
                Json::Num(
                    (warm.pivots.refactorizations - warm.wave_pivots.refactorizations) as f64,
                ),
            ),
            ("cold_nodes", Json::Num(cold.nodes as f64)),
            ("warm_nodes", Json::Num(warm.nodes as f64)),
            ("admitted", Json::Num(admitted as f64)),
            ("outcomes_identical", Json::Bool(outcomes_identical)),
            ("cold_objective", Json::Num(cold.objective)),
            ("warm_objective", Json::Num(warm.objective)),
        ]),
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
    // The cross-submission LP cache must carry the warm path: a healthy
    // patch rate overall, and the retry wave — re-submissions over an
    // unchanged skeleton, the cross-submission case in isolation — must be
    // served *entirely* by patches: rebuilds happen on structural-change
    // rounds only, and the wave has none.
    assert!(
        warm.cache.patch_rate() >= MIN_WARM_CACHE_PATCH_RATE,
        "warm LP-cache patch rate too low: {:.1}% < {:.0}% ({:?})",
        100.0 * warm.cache.patch_rate(),
        100.0 * MIN_WARM_CACHE_PATCH_RATE,
        warm.cache
    );
    // Lifted factor generations must re-attach factorisations across the
    // cache's consecutive constructions.
    assert!(
        warm.pivots.factor_reattaches > 0,
        "warm path re-attached no basis factorisations"
    );
    // The wave-specific invariants only exist when the workload saturates
    // (a tuning that admits all 50 queries schedules no retries).
    if retries > 0 {
        assert_eq!(
            warm.wave_cache.rebuilds, 0,
            "retry-wave rounds are not structural changes and must all patch: {:?}",
            warm.wave_cache
        );
        assert!(
            warm.wave_cache.patches >= retries,
            "every retry must be served by the cache: {:?}",
            warm.wave_cache
        );
        assert!(
            warm.cache.refix_patches > 0,
            "no cross-submission fixed-class hits: every patch kept the exact \
             fixed set, the class keying is not engaging ({:?})",
            warm.cache
        );
        assert!(
            warm.wave_pivots.factor_reattaches > 0,
            "retry wave re-attached no factors: the lifted generation token \
             is not surviving bound-patch refreshes"
        );
    }
    // Warm LP iterations / refactorisations vs. the committed baseline: a
    // regression beyond the noise band fails the smoke (refresh the
    // committed BENCH_incremental.json when the regression is intentional).
    if let Some(baseline) = baseline_num("warm_lp_iterations") {
        assert!(
            (warm.lp_iterations as f64) <= WARM_ITER_REGRESSION * baseline,
            "warm LP iterations regressed >{:.0}% vs committed baseline: {} vs {baseline}",
            100.0 * (WARM_ITER_REGRESSION - 1.0),
            warm.lp_iterations
        );
    } else {
        println!("(no committed baseline found; warm-iteration regression check skipped)");
    }
    if let Some(baseline) = baseline_num("warm_refactorizations") {
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
