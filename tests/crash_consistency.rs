//! Crash-consistency of the shared LP cache slot: when the branch & bound
//! aborts on its node budget mid-tree, the persistent `LpCacheSlot` must
//! come out reusable — the next submission's decisions bit-identical to a
//! twin planner that builds every round from a fresh slot. An aborted tree
//! that leaked a half-patched compressed LP or a stale factorisation into
//! the shared slot would show up here as a decision divergence on some
//! seed.
//!
//! Implemented as seeded random-case loops (the sanctioned dependency set
//! has no `proptest`); every case prints its seed on failure so it can be
//! replayed deterministically.

use sqpr_suite::core::{MilpStatus, PlannerConfig, SolveBudget, SqprPlanner};
use sqpr_suite::dsps::{Catalog, CostModel, HostId, HostSpec, StreamId};
use sqpr_suite::workload::rng::{Rng, StdRng};

fn random_case(rng: &mut StdRng) -> (Catalog, Vec<StreamId>, Vec<Vec<usize>>) {
    let hosts = rng.gen_index(3) + 3;
    // Tight enough that admissions contend and budget aborts decide.
    let cpu = rng.gen_range_f64(25.0, 70.0);
    let bw = rng.gen_range_f64(30.0, 80.0);
    let mut c = Catalog::uniform(
        hosts,
        HostSpec::new(cpu, bw),
        bw * 6.0,
        CostModel::default(),
    );
    let n_bases = rng.gen_index(4) + 5;
    let bases: Vec<StreamId> = (0..n_bases)
        .map(|i| c.add_base_stream(HostId((i % hosts) as u32), 10.0, i as u64))
        .collect();
    let submissions: Vec<Vec<usize>> = (0..10)
        .map(|_| {
            let k = rng.gen_index(3) + 2;
            (0..k).map(|_| rng.gen_index(n_bases)).collect()
        })
        .collect();
    (c, bases, submissions)
}

fn drive(
    catalog: &Catalog,
    bases: &[StreamId],
    submissions: &[Vec<usize>],
    reuse_slot: bool,
) -> SqprPlanner {
    let mut cfg = PlannerConfig::new(catalog);
    // A tiny node budget: most rounds abort with open nodes on the
    // frontier, which is the scenario under test.
    cfg.budget = SolveBudget::nodes(4);
    cfg.reuse_solver_context = reuse_slot;
    let mut planner = SqprPlanner::new(catalog.clone(), cfg);
    for sub in submissions {
        let mut set: Vec<StreamId> = sub.iter().map(|&i| bases[i]).collect();
        set.sort();
        set.dedup();
        if set.len() < 2 {
            continue;
        }
        planner.submit(&set).expect("valid bases");
    }
    planner
}

#[test]
fn budget_abort_leaves_slot_reusable() {
    let mut aborted_rounds = 0usize;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xAB0B ^ (seed << 3));
        let (catalog, bases, submissions) = random_case(&mut rng);

        // Shared-slot planner vs a fresh-slot twin (every round built
        // from scratch, nothing to corrupt).
        let warm = drive(&catalog, &bases, &submissions, true);
        let fresh = drive(&catalog, &bases, &submissions, false);

        let warm_decisions: Vec<(u32, bool)> = warm
            .outcomes()
            .iter()
            .map(|o| (o.query.0, o.admitted))
            .collect();
        let fresh_decisions: Vec<(u32, bool)> = fresh
            .outcomes()
            .iter()
            .map(|o| (o.query.0, o.admitted))
            .collect();
        assert_eq!(
            warm_decisions, fresh_decisions,
            "seed {seed}: decisions diverged after budget-aborted rounds"
        );
        assert_eq!(
            warm.state().placements(),
            fresh.state().placements(),
            "seed {seed}: placements diverged"
        );
        assert_eq!(
            warm.state().flows(),
            fresh.state().flows(),
            "seed {seed}: flows diverged"
        );
        assert_eq!(
            warm.deployment_objective().to_bits(),
            fresh.deployment_objective().to_bits(),
            "seed {seed}: objective not bit-identical"
        );

        // The scenario must actually occur: count rounds that stopped on
        // the budget without proving optimality.
        aborted_rounds += warm
            .outcomes()
            .iter()
            .filter(|o| o.status != MilpStatus::Optimal && !o.reused_existing)
            .count();
    }
    assert!(
        aborted_rounds > 0,
        "no budget-aborted round occurred; the property was vacuous"
    );
}
