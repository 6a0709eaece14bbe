//! Observability of the incremental machinery: the `ProducersOnly` relay
//! fallback must be surfaced (not silent), and the skeleton column GC must
//! compact dead (rejected) queries' columns while preserving behaviour.

use sqpr_core::{CacheStats, PlannerConfig, RelayPolicy, SqprPlanner};
use sqpr_dsps::{Catalog, CostModel, HostId, HostSpec, StreamId};

fn system(
    n_hosts: usize,
    n_bases: usize,
    cpu: f64,
    bw: f64,
    link: f64,
) -> (Catalog, Vec<StreamId>) {
    let mut c = Catalog::uniform(n_hosts, HostSpec::new(cpu, bw), link, CostModel::default());
    let bases = (0..n_bases)
        .map(|i| c.add_base_stream(HostId((i % n_hosts) as u32), 10.0, i as u64))
        .collect();
    (c, bases)
}

/// `ProducersOnly` relays extend incrementally: relay rows live in a keyed
/// registry, later-added producers join the rows of their output stream,
/// and the right-hand sides are refreshed per extension — so the planner
/// serves every round from the persistent solver context
/// (`config_fallback_rounds == 0`), with decisions identical to a cold
/// `ProducersOnly` twin.
#[test]
fn producers_only_uses_the_incremental_path() {
    let (c, b) = system(3, 3, 100.0, 100.0, 1000.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 120;
    cfg.relay_policy = RelayPolicy::ProducersOnly;
    assert!(cfg.reuse_solver_context, "reuse is the default");
    let mut warm = SqprPlanner::new(c.clone(), cfg.clone());
    cfg.reuse_solver_context = false;
    let mut cold = SqprPlanner::new(c, cfg);

    for pair in [[b[0], b[1]], [b[1], b[2]], [b[0], b[2]], [b[2], b[1]]] {
        let wo = warm.submit(&pair).expect("valid bases");
        let co = cold.submit(&pair).expect("valid bases");
        assert_eq!(
            wo.admitted, co.admitted,
            "incremental ProducersOnly diverged from the cold twin"
        );
        assert!(warm.state().is_valid(warm.catalog()));
    }

    let stats = warm.solver_stats();
    assert_eq!(
        stats.config_fallback_rounds, 0,
        "ProducersOnly must no longer force cold fresh builds: {stats:?}"
    );
    assert!(stats.incremental_rounds >= 1, "{stats:?}");
    assert_eq!(stats.cold_rounds, 0, "{stats:?}");
    // Solved (non-short-circuited) rounds report the incremental path.
    assert!(
        warm.outcomes()
            .iter()
            .filter(|o| !o.reused_existing)
            .all(|o| o.incremental),
        "every solved round must reuse the context"
    );

    // `replan = false` remains the one gated-out configuration.
    let (c2, b2) = system(3, 3, 100.0, 100.0, 1000.0);
    let mut cfg2 = PlannerConfig::new(&c2);
    cfg2.budget.max_nodes = 120;
    cfg2.replan = false;
    let mut p2 = SqprPlanner::new(c2, cfg2);
    p2.submit(&[b2[0], b2[1]]).expect("valid bases");
    let stats2 = p2.solver_stats();
    assert_eq!(stats2.incremental_rounds, 0, "{stats2:?}");
    assert_eq!(stats2.config_fallback_rounds, 1, "{stats2:?}");
}

/// The compressed-LP cache's activity must be observable per round:
/// `PlanningOutcome::lp_cache` carries the round's counter deltas, and
/// they must sum to the slot's lifetime stats. Re-submitting a rejected
/// query is the canonical cross-submission warm case — the skeleton
/// already covers its plan space (no structural growth), only the
/// deployment pins moved — so the re-submission's constructions must be
/// served by patches, not rebuilds.
#[test]
fn cache_stats_surface_per_round_and_resubmissions_patch() {
    // A system too tight to admit anything: every submission solves (no
    // provider short-circuit) and is rejected.
    let (c, b) = system(2, 3, 0.05, 2.0, 20.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 120;
    let mut planner = SqprPlanner::new(c, cfg);

    let o1 = planner.submit(&[b[0], b[1]]).expect("valid bases");
    assert!(!o1.admitted && !o1.reused_existing);
    assert!(
        o1.lp_cache.rebuilds >= 1,
        "first construction lowers fresh: {:?}",
        o1.lp_cache
    );

    // Same bases again: the result stream exists but is unprovided, so the
    // round solves — over an unchanged skeleton structure.
    let o2 = planner.submit(&[b[0], b[1]]).expect("valid bases");
    assert!(!o2.reused_existing, "rejected queries are not provided");
    assert!(
        o2.lp_cache.patches >= 1 && o2.lp_cache.rebuilds == 0,
        "re-submission must patch the cached LP, not rebuild: {:?}",
        o2.lp_cache
    );

    // Per-round deltas sum to the slot's lifetime counters.
    let mut summed = CacheStats::default();
    for o in planner.outcomes() {
        summed.add(&o.lp_cache);
    }
    assert_eq!(summed, planner.lp_cache_stats());
    assert!(planner.lp_cache_stats().patch_rate() > 0.0);
}

/// A cold planner (`reuse_solver_context = false`) builds every round
/// afresh, and its searches run over private LP cache slots: no round
/// reports the incremental path or any cache activity, and the planner's
/// own slot is never touched — sliced one node at a time included, where
/// every search suspends and resumes.
#[test]
fn cold_rounds_report_no_cache_activity() {
    for node_quantum in [0, 1] {
        let (c, b) = system(2, 3, 4.0, 60.0, 600.0);
        let mut cfg = PlannerConfig::new(&c);
        cfg.budget.max_nodes = 120;
        cfg.reuse_solver_context = false;
        cfg.node_quantum = node_quantum;
        let mut cold = SqprPlanner::new(c, cfg);
        for i in 0..6 {
            cold.submit(&[b[i % 3], b[(i + 1) % 3]])
                .expect("valid bases");
        }
        let solved = cold.outcomes().iter().filter(|o| !o.reused_existing);
        assert!(
            solved.count() >= 3,
            "quantum {node_quantum}: too few solved"
        );
        for o in cold.outcomes() {
            assert!(!o.incremental, "quantum {node_quantum}: {o:?}");
            assert_eq!(o.lp_cache, CacheStats::default(), "quantum {node_quantum}");
        }
        assert_eq!(cold.lp_cache_stats(), CacheStats::default());
        let stats = cold.solver_stats();
        assert_eq!(stats.incremental_rounds, 0, "{stats:?}");
        assert!(stats.cold_rounds >= 3, "{stats:?}");
    }
}

/// Rejected queries leave dead columns in the cached skeleton. With
/// `reuse = false` (private per-query plan spaces) and a CPU budget that
/// only fits the first couple of joins, most submissions are rejected;
/// once dead columns pass the threshold the planner must compact — and
/// keep planning correctly afterwards (same decisions as a cold twin).
#[test]
fn skeleton_gc_compacts_rejected_queries() {
    let (c, b) = system(2, 4, 3.0, 60.0, 600.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 120;
    cfg.reuse = false; // private spaces: rejected queries' columns are dead
    let mut warm = SqprPlanner::new(c.clone(), cfg.clone());
    let mut no_gc_cfg = cfg.clone();
    no_gc_cfg.skeleton_gc_threshold = 2.0; // disabled: skeleton only grows
    let mut no_gc = SqprPlanner::new(c.clone(), no_gc_cfg);
    cfg.reuse_solver_context = false;
    let mut cold = SqprPlanner::new(c, cfg);

    for i in 0..10 {
        let pair = [b[i % 4], b[(i + 1) % 4]];
        let wo = warm.submit(&pair).expect("valid bases");
        let go = no_gc.submit(&pair).expect("valid bases");
        let co = cold.submit(&pair).expect("valid bases");
        assert_eq!(
            wo.admitted, co.admitted,
            "step {i}: admit/reject diverged (warm {} vs cold {})",
            wo.admitted, co.admitted
        );
        assert_eq!(wo.admitted, go.admitted, "step {i}: GC changed a decision");
        assert!(warm.state().is_valid(warm.catalog()), "step {i}");
    }
    let stats = warm.solver_stats();
    assert!(
        stats.compactions >= 1,
        "rejected queries must trigger skeleton GC: {stats:?}"
    );
    assert!(
        stats.compacted_columns > 0,
        "compaction must actually drop columns: {stats:?}"
    );
    assert_eq!(no_gc.solver_stats().compactions, 0);
    // The compacted planner's final model must be strictly smaller than
    // the grow-forever twin's.
    let last = warm.outcomes().last().unwrap().model_vars;
    let last_no_gc = no_gc.outcomes().last().unwrap().model_vars;
    assert!(
        last < last_no_gc,
        "GC'd skeleton ({last}) should be smaller than the grow-forever one ({last_no_gc})"
    );
    assert_eq!(warm.num_admitted(), cold.num_admitted());
}
