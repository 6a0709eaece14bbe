//! Direct tests of the planning-model builder: variable/constraint
//! generation, the §IV-A reduction's residual fixing, relay policies and
//! the two acyclicity modes.

use sqpr_core::{
    register_join_query, AcyclicityMode, ModelInputs, ObjectiveWeights, PlannerConfig,
    PlanningModel, RelayPolicy, SolveBudget, SqprPlanner,
};
use sqpr_dsps::{Catalog, CostModel, DeploymentState, HostId, HostSpec, QueryId, StreamId};

fn catalog(hosts: usize) -> (Catalog, Vec<StreamId>) {
    let mut c = Catalog::uniform(
        hosts,
        HostSpec::new(100.0, 100.0),
        1000.0,
        CostModel::default(),
    );
    let b = (0..4)
        .map(|i| c.add_base_stream(HostId((i % hosts) as u32), 10.0, i as u64))
        .collect();
    (c, b)
}

fn build(
    c: &Catalog,
    state: &DeploymentState,
    space: &sqpr_core::PlanSpace,
    new: &[StreamId],
    acyclicity: AcyclicityMode,
    relay: RelayPolicy,
) -> PlanningModel {
    PlanningModel::build(&ModelInputs {
        catalog: c,
        state,
        space,
        new_streams: new,
        weights: ObjectiveWeights::paper_defaults(c),
        relay_policy: relay,
        acyclicity,
        replan: true,
        cuts: &[],
    })
}

#[test]
fn variable_counts_follow_the_formulation() {
    let (mut c, b) = catalog(3);
    let (spec, space) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
    let state = DeploymentState::new();
    let h = 3usize;
    let ns = space.streams.len(); // 2 bases + 1 join
    let no = space.operators.len(); // 1
    assert_eq!((ns, no), (3, 1));

    let lazy = build(
        &c,
        &state,
        &space,
        &[spec.result],
        AcyclicityMode::Lazy,
        RelayPolicy::All,
    );
    // y: H*ns, x: H*(H-1)*ns, z: H*no, d: H (one demanded stream), t: 1.
    let expect_lazy = h * ns + h * (h - 1) * ns + h * no + h + 1;
    assert_eq!(lazy.num_vars(), expect_lazy);

    let cons = build(
        &c,
        &state,
        &space,
        &[spec.result],
        AcyclicityMode::Constraints,
        RelayPolicy::All,
    );
    // Adds p: H*ns continuous potentials.
    assert_eq!(cons.num_vars(), expect_lazy + h * ns);
    // And one acyclicity row per x variable.
    assert_eq!(cons.num_cons(), lazy.num_cons() + h * (h - 1) * ns);
}

#[test]
fn producers_only_relay_policy_adds_rows() {
    let (mut c, b) = catalog(3);
    let (spec, space) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
    let state = DeploymentState::new();
    let all = build(
        &c,
        &state,
        &space,
        &[spec.result],
        AcyclicityMode::Lazy,
        RelayPolicy::All,
    );
    let prod = build(
        &c,
        &state,
        &space,
        &[spec.result],
        AcyclicityMode::Lazy,
        RelayPolicy::ProducersOnly,
    );
    // One extra row per x variable.
    assert_eq!(
        prod.num_cons(),
        all.num_cons() + 3 * 2 * space.streams.len()
    );
}

#[test]
fn acyclicity_modes_agree_on_admissions() {
    // Same tiny workload planned under both modes must admit identically.
    let (c, b) = catalog(3);
    let queries = [vec![b[0], b[1]], vec![b[1], b[2]], vec![b[0], b[1], b[3]]];
    let mut counts = Vec::new();
    for mode in [AcyclicityMode::Lazy, AcyclicityMode::Constraints] {
        let mut cfg = PlannerConfig::new(&c);
        cfg.budget = SolveBudget::nodes(80);
        cfg.acyclicity = mode;
        let mut p = SqprPlanner::new(c.clone(), cfg);
        for q in &queries {
            p.submit(q).expect("valid bases");
        }
        assert!(p.state().is_valid(p.catalog()));
        counts.push(p.num_admitted());
    }
    assert_eq!(counts[0], counts[1], "lazy vs III.7 admissions differ");
}

#[test]
fn warm_start_reflects_existing_deployment() {
    let (mut c, b) = catalog(2);
    let (spec, space) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
    // Hand-build a deployment: ship b1 to h0, join at h0, provide from h0.
    let op = space.operators[0];
    let mut state = DeploymentState::new();
    state.add_flow(HostId(1), HostId(0), b[1]);
    state.add_placement(HostId(0), op);
    state.add_available(HostId(0), spec.result);
    state.set_provided(spec.result, HostId(0));
    state.admit_query(QueryId(0), spec.result);
    assert!(state.is_valid(&c));

    let model = build(
        &c,
        &state,
        &space,
        &[],
        AcyclicityMode::Constraints,
        RelayPolicy::All,
    );
    let warm = model.warm_start(&state, &c).expect("heights derivable");
    assert!(
        model.milp.is_feasible(&warm, 1e-6),
        "warm start must satisfy the model (incl. IV.9 equality rows)"
    );
}

#[test]
fn residual_fixing_blocks_oversubscription() {
    // A fixed (unrelated) placement consumes most of one host's CPU; the
    // model for a new query must respect the residual.
    let (mut c, b) = catalog(2);
    // Unrelated pair occupies h0 heavily.
    let (q0, s0) = register_join_query(&mut c, QueryId(0), &[b[2], b[3]], 0);
    let big_op = s0.operators[0];
    let mut state = DeploymentState::new();
    // Force both bases of q0 to exist at h0 for a self-contained placement.
    // b2 is at h0 already; ship b3 across.
    state.add_flow(HostId(1), HostId(0), b[3]);
    state.add_placement(HostId(0), big_op);
    state.add_available(HostId(0), q0.result);
    state.set_provided(q0.result, HostId(0));
    state.admit_query(QueryId(0), q0.result);
    assert!(state.is_valid(&c));

    // New query over b0, b1 (disjoint!): its space excludes big_op, so the
    // model must treat h0's 20 used CPU as fixed.
    let (q1, space1) = register_join_query(&mut c, QueryId(1), &[b[0], b[1]], 0);
    // Constraints mode: raw solves (no causality filter) stay causal.
    let model = build(
        &c,
        &state,
        &space1,
        &[q1.result],
        AcyclicityMode::Constraints,
        RelayPolicy::All,
    );
    assert!(!space1.operators.contains(&big_op));
    // Solve: must succeed (plenty of room) and keep q0 intact.
    let r = sqpr_milp::solve(&model.milp, &sqpr_milp::MilpOptions::default());
    assert!(r.x.is_some());
    let decoded = model.decode(r.x.as_ref().unwrap(), &state);
    let mut next = state.clone();
    decoded.install(&mut next);
    assert!(next.is_valid(&c));
    assert_eq!(
        next.provider_of(q0.result),
        Some(HostId(0)),
        "fixed query untouched"
    );
}

#[test]
fn admits_reports_demanded_stream() {
    let (mut c, b) = catalog(2);
    let (spec, space) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
    let state = DeploymentState::new();
    let model = build(
        &c,
        &state,
        &space,
        &[spec.result],
        AcyclicityMode::Constraints,
        RelayPolicy::All,
    );
    let r = sqpr_milp::solve(&model.milp, &sqpr_milp::MilpOptions::default());
    let x = r.x.expect("solvable");
    assert!(model.admits(&x, spec.result), "λ1 dominance must admit");
}
