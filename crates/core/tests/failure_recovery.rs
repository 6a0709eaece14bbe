//! Failure-storm recovery: host faults displace queries; the storm driver
//! must account for every one of them (re-admitted, degraded, or an
//! explicit drop — never a silent loss) and stay on the warm solver path
//! where possible.

use sqpr_core::{
    recover_from_failures, PlannerConfig, RecoveryMode, SolveBudget, SqprPlanner, StormBudget,
};
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

fn planner(c: &Catalog) -> SqprPlanner {
    let mut cfg = PlannerConfig::new(c);
    cfg.budget = SolveBudget::nodes(200);
    SqprPlanner::new(c.clone(), cfg)
}

const SUBMISSIONS: &[&[usize]] = &[
    &[0, 1],
    &[2, 3],
    &[4, 5],
    &[0, 2],
    &[1, 3, 5],
    &[0, 4],
    &[2, 5],
    &[1, 4],
];

fn submit_all(p: &mut SqprPlanner, bases: &[StreamId]) {
    for q in SUBMISSIONS {
        let set: Vec<StreamId> = q.iter().map(|&i| bases[i]).collect();
        p.submit(&set).expect("valid bases");
    }
}

/// A host goes down on a system with plenty of slack: every displaced
/// query must come back through the solver, nothing lands on the dead
/// host, and the report accounts for each displaced query exactly once.
#[test]
fn storm_readmits_every_displaced_query_with_slack() {
    let (c, b) = system(6, 6, 200.0, 200.0, 2000.0);
    let mut p = planner(&c);
    submit_all(&mut p, &b);
    let before = p.num_admitted();
    assert!(before >= SUBMISSIONS.len() - 1, "slack system should admit");

    // Fail a host that carries placements (every host sources a base
    // stream; pick one actually used by the deployment).
    let victim = p
        .state()
        .placements()
        .iter()
        .map(|&(h, _)| h)
        .next()
        .expect("deployment has placements");
    assert!(p.fail_host(victim));

    let report = recover_from_failures(&mut p, &StormBudget::unlimited());
    assert_eq!(report.failed_hosts, vec![victim]);
    assert!(!report.recoveries.is_empty(), "victim carried no queries");
    assert_eq!(report.dropped(), 0, "slack system must not drop");
    assert_eq!(report.degraded(), 0, "slack system must not degrade");
    assert_eq!(report.replanned(), report.recoveries.len());
    assert_eq!(p.num_admitted(), before);

    // No recovered piece may touch the dead host, and the deployment must
    // validate against the post-fault catalog.
    assert!(p.state().placements().iter().all(|&(h, _)| h != victim));
    assert!(p.state().is_valid(p.catalog()));

    // Every displaced query appears exactly once in the report.
    let mut qs: Vec<_> = report.recoveries.iter().map(|r| r.query).collect();
    qs.dedup();
    assert_eq!(qs.len(), report.recoveries.len());
}

/// With the node budget already exhausted, the storm must degrade to the
/// greedy baseline — served, reported, zero solver nodes — never drop
/// silently.
#[test]
fn dry_budget_degrades_instead_of_dropping() {
    let (c, b) = system(6, 6, 200.0, 200.0, 2000.0);
    let mut p = planner(&c);
    submit_all(&mut p, &b);
    let before = p.num_admitted();

    let victim = p
        .state()
        .placements()
        .iter()
        .map(|&(h, _)| h)
        .next()
        .expect("deployment has placements");
    p.fail_host(victim);

    let report = recover_from_failures(&mut p, &StormBudget::nodes(0));
    assert!(!report.recoveries.is_empty());
    assert_eq!(report.nodes_spent, 0, "dry budget must not run the solver");
    assert_eq!(report.dropped(), 0, "greedy fallback must serve the slack");
    assert_eq!(report.degraded(), report.recoveries.len());
    assert!((report.degraded_fraction() - 1.0).abs() < 1e-12);
    assert_eq!(p.num_admitted(), before);
    assert!(p.state().is_valid(p.catalog()));
    assert!(p.state().placements().iter().all(|&(h, _)| h != victim));
}

/// Restoring the failed host brings its capacity back: a query displaced
/// and rejected while the host was down is admittable again.
#[test]
fn restore_host_returns_capacity() {
    let (c, b) = system(3, 3, 25.0, 40.0, 400.0);
    let mut p = planner(&c);
    p.submit(&[b[0], b[1]]).expect("valid bases");
    let victim = HostId(2);
    assert!(p.fail_host(victim));
    assert!(p.catalog().is_host_failed(victim));
    assert!(p.restore_host(victim));
    assert!(!p.catalog().is_host_failed(victim));
    // Planning still works and may use the restored host again.
    p.submit(&[b[1], b[2]]).expect("valid bases");
    assert!(p.state().is_valid(p.catalog()));
}

/// On a saturated system the solver and the greedy baseline both run out
/// of capacity — the ladder's bottom rung must still serve every
/// displaced query by pinning it (oversubscribed) to a surviving host,
/// leaving the managed deployment untouched and valid. `Dropped` is
/// reserved for a system with no surviving hosts at all.
#[test]
fn saturated_storm_pins_best_effort_instead_of_dropping() {
    // Tight: barely fits the initial workload, so post-fault re-admission
    // cannot re-place everything within capacity.
    let (c, b) = system(4, 6, 30.0, 40.0, 400.0);
    let mut p = planner(&c);
    submit_all(&mut p, &b);
    assert!(p.num_admitted() > 0);

    p.fail_host(HostId(0));
    let report = recover_from_failures(&mut p, &StormBudget::nodes(400));
    assert!(!report.recoveries.is_empty());
    assert_eq!(report.dropped(), 0, "survivors exist: nothing may drop");
    // Pins land on surviving hosts only, and the managed deployment stays
    // valid (pins live outside it).
    for r in &report.recoveries {
        if let Some(h) = r.degraded_host {
            assert!(!p.catalog().is_host_failed(h));
            assert_eq!(r.mode, RecoveryMode::Degraded);
        }
    }
    assert!(p.state().is_valid(p.catalog()));

    // Kill everything: with no survivors the ladder has no bottom rung
    // left and queries drop — explicitly, in the report.
    for h in 1..4 {
        p.fail_host(HostId(h));
    }
    let report = recover_from_failures(&mut p, &StormBudget::nodes(0));
    assert_eq!(p.num_admitted(), 0);
    assert!(report
        .recoveries
        .iter()
        .all(|r| r.mode == RecoveryMode::Dropped));
}

/// The storm's solver rounds must ride the warm patch path: after the
/// fault, re-admissions extend the surviving skeleton (incremental
/// rounds), each round lowers the compressed LP at most once, and the
/// round's further trees (lazy-cut rounds) are in-place patches of that
/// lowering. Every host is failed in turn, each on a fresh planner, and
/// every storm must account for each displaced query without a drop and
/// leave a valid deployment. Summed over the victims, the storm builds at
/// most 1.5 branch & bound trees (cache rebuilds plus patches) per solver
/// round: an admitting round runs one tree unless its incumbent needs
/// cuts, so a round that pays for a rejected dive candidate shows here.
///
/// The context survives the displacement only when the displaced queries'
/// columns are already bound-fixed, so for the victims that spare the
/// latest-planned query (whose columns are still free until the next
/// extension re-fixes them) *every* solver round must be incremental.
#[test]
fn storm_rounds_stay_on_the_warm_patch_path() {
    let (c, b) = system(6, 6, 200.0, 200.0, 2000.0);
    let (mut total_rounds, mut total_trees, mut fixed_only_victims) = (0, 0, 0);
    for victim in c.hosts() {
        let mut p = planner(&c);
        submit_all(&mut p, &b);
        let last_planned = p
            .outcomes()
            .iter()
            .rev()
            .find(|o| !o.reused_existing)
            .map(|o| o.query)
            .expect("at least one solved round");
        let before = p.num_admitted();
        p.fail_host(victim);
        let fixed_only = !p
            .state()
            .audit_failures(p.catalog())
            .displaced
            .contains(&last_planned);

        let inc_before = p.solver_stats().incremental_rounds;
        let report = recover_from_failures(&mut p, &StormBudget::unlimited());
        assert_eq!(report.dropped(), 0, "{victim}: survivors exist");
        assert_eq!(
            report.replanned() + report.degraded(),
            report.recoveries.len()
        );
        let pinned = report
            .recoveries
            .iter()
            .filter(|r| r.degraded_host.is_some())
            .count();
        assert_eq!(p.num_admitted() + pinned, before, "{victim}: lost a query");
        assert!(p.state().is_valid(p.catalog()), "{victim}");

        let rounds: Vec<_> = report
            .recoveries
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .filter(|o| !o.reused_existing)
            .collect();
        for o in &rounds {
            assert!(
                o.lp_cache.rebuilds <= 1,
                "{victim}: {} lowered the LP {} times in one round",
                o.query,
                o.lp_cache.rebuilds
            );
        }
        total_rounds += rounds.len();
        total_trees += rounds
            .iter()
            .map(|o| o.lp_cache.rebuilds + o.lp_cache.patches)
            .sum::<usize>();

        if fixed_only && !rounds.is_empty() {
            fixed_only_victims += 1;
            assert_eq!(
                p.solver_stats().incremental_rounds - inc_before,
                rounds.len(),
                "{victim}: storm solver rounds fell off the incremental path"
            );
        }
    }
    assert!(total_rounds > 0, "no victim displaced a solved query");
    assert!(
        2 * total_trees <= 3 * total_rounds,
        "{total_trees} trees for {total_rounds} storm solver rounds"
    );
    assert!(
        fixed_only_victims > 0,
        "no victim displaced only bound-fixed queries"
    );
}
