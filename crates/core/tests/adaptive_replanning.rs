//! Tests for §IV-B adaptive re-planning: criterion (a) (rate drift beyond
//! a relative threshold), criterion (b) (resource shortage sweep), the
//! `AdaptReport` accounting identity, and the `DriftMonitor` trigger that
//! guards the solver context against sub-threshold noise.

use sqpr_core::{adapt_to_observed_rates, DriftMonitor, PlannerConfig, SqprPlanner};
use sqpr_dsps::{Catalog, CostModel, HostId, HostSpec, StreamId};

/// `n` hosts with the given capacities; `k` base streams spread
/// round-robin, all at rate 10.
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

fn planner(c: Catalog) -> SqprPlanner {
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 200;
    cfg.budget.wall_clock_ms = Some(10_000);
    SqprPlanner::new(c, cfg)
}

// ---------------------------------------------------------------- criterion (a)

#[test]
fn criterion_a_replans_only_queries_on_drifted_bases() {
    let (c, b) = system(3, 4, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    let q01 = p.submit(&[b[0], b[1]]).expect("valid").query;
    let q23 = p.submit(&[b[2], b[3]]).expect("valid").query;
    assert_eq!(p.num_admitted(), 2);

    // b0 doubles (100% > 25% threshold); b2 nudges by 1% (below it). Both
    // rates must be applied to the catalog, but only the q01 query sits on
    // a drifted base.
    let report = adapt_to_observed_rates(&mut p, &[(b[0], 20.0), (b[2], 10.1)], 0.25);

    assert_eq!(report.drifted_streams, vec![b[0]]);
    assert_eq!(report.replanned, vec![q01]);
    assert_eq!(report.readmitted, vec![q01]);
    assert!(report.dropped.is_empty());
    assert!(
        !report.replanned.contains(&q23),
        "q23's bases did not drift"
    );
    // Sub-threshold observations still refresh the assumed rates.
    assert_eq!(p.catalog().stream(b[0]).rate, 20.0);
    assert_eq!(p.catalog().stream(b[2]).rate, 10.1);
    assert!(p.state().is_valid(p.catalog()));
}

#[test]
fn sub_threshold_drift_is_a_noop_report_but_rates_update() {
    let (c, b) = system(2, 2, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    p.submit(&[b[0], b[1]]).expect("valid");

    let report = adapt_to_observed_rates(&mut p, &[(b[0], 10.5), (b[1], 9.6)], 0.25);

    assert!(report.drifted_streams.is_empty());
    assert!(report.replanned.is_empty());
    assert!(report.readmitted.is_empty());
    assert!(report.dropped.is_empty());
    assert_eq!(p.catalog().stream(b[0]).rate, 10.5);
    assert_eq!(p.catalog().stream(b[1]).rate, 9.6);
    assert_eq!(p.num_admitted(), 1);
}

#[test]
fn drift_on_unadmitted_query_bases_selects_nothing() {
    let (c, b) = system(2, 3, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    let q = p.submit(&[b[0], b[1]]).expect("valid").query;
    assert!(p.remove_query(q), "fresh query removes cleanly");

    // b0 drifts hard, but the only query on it is gone.
    let report = adapt_to_observed_rates(&mut p, &[(b[0], 100.0)], 0.25);
    assert_eq!(report.drifted_streams, vec![b[0]]);
    assert!(report.replanned.is_empty(), "no admitted query is affected");
}

#[test]
fn junk_observations_are_skipped() {
    let (c, b) = system(2, 3, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    p.submit(&[b[0], b[1]]).expect("valid");

    // A zero, a NaN and an unbounded reading: none is a rate.
    let junk = [(b[0], 0.0), (b[1], f64::NAN), (b[2], f64::INFINITY)];
    let report = adapt_to_observed_rates(&mut p, &junk, 0.25);
    assert!(report.drifted_streams.is_empty());
    assert!(report.replanned.is_empty());
    for &s in &b {
        assert_eq!(p.catalog().stream(s).rate, 10.0, "{s} was updated");
    }
    assert_eq!(p.num_admitted(), 1);
    assert!(p.state().is_valid(p.catalog()));
}

// ---------------------------------------------------------------- criterion (b)

#[test]
fn criterion_b_sweeps_on_shortage_even_without_threshold_drift() {
    // Tight hosts: each 25-CPU host fits exactly one cost-20 join at the
    // initial rates; then one base rate rises enough to oversubscribe its
    // host. An enormous threshold keeps criterion (a) silent, so only the
    // shortage sweep can react.
    let (c, b) = system(2, 4, 25.0, 10_000.0, 10_000.0);
    let mut p = planner(c);
    assert!(p.submit(&[b[0], b[1]]).expect("valid").admitted);
    assert!(p.submit(&[b[2], b[3]]).expect("valid").admitted);
    assert!(p.state().is_valid(p.catalog()));

    let report = adapt_to_observed_rates(&mut p, &[(b[0], 24.0)], 1e9);

    assert!(
        report.drifted_streams.is_empty(),
        "threshold 1e9 must mute criterion (a): {report:?}"
    );
    assert!(
        !report.replanned.is_empty(),
        "shortage must trigger the criterion-(b) sweep: {report:?}"
    );
    assert_eq!(
        report.replanned.len(),
        report.readmitted.len() + report.dropped.len(),
        "accounting identity broke: {report:?}"
    );
    assert!(
        p.state().is_valid(p.catalog()),
        "after the sweep the deployment is feasible again: {:?}",
        p.state().validate(p.catalog())
    );
}

#[test]
fn adapt_report_accounting_identity_holds_even_with_drops() {
    // The rate explosion makes every query infeasible: criterion (a)
    // selects them all and every re-plan fails. The report must still
    // balance: replanned == readmitted + dropped, disjointly.
    let (c, b) = system(2, 4, 70.0, 10_000.0, 10_000.0);
    let mut p = planner(c);
    assert!(p.submit(&[b[0], b[1]]).expect("valid").admitted);
    assert!(p.submit(&[b[2], b[3]]).expect("valid").admitted);

    let observed: Vec<(StreamId, f64)> = b.iter().map(|&s| (s, 500.0)).collect();
    let report = adapt_to_observed_rates(&mut p, &observed, 0.25);

    assert_eq!(report.drifted_streams, b);
    assert_eq!(
        report.replanned.len(),
        report.readmitted.len() + report.dropped.len(),
        "accounting identity broke: {report:?}"
    );
    for q in &report.readmitted {
        assert!(report.replanned.contains(q));
        assert!(
            !report.dropped.contains(q),
            "readmitted and dropped overlap"
        );
    }
    for q in &report.dropped {
        assert!(report.replanned.contains(q));
        assert!(
            !p.state().admitted().contains_key(q),
            "dropped query {q} still admitted"
        );
    }
    assert!(!report.dropped.is_empty(), "500x rates must drop something");
    assert_eq!(
        p.num_admitted(),
        2 - report.dropped.len(),
        "planner admission count tracks the drops"
    );
}

// ---------------------------------------------------------------- DriftMonitor

#[test]
fn monitor_stays_silent_within_threshold_and_touches_nothing() {
    let (c, b) = system(2, 2, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    p.submit(&[b[0], b[1]]).expect("valid");

    let mut mon = DriftMonitor::new(8, 2);
    mon.observe_all(&[(b[0], 10.4), (b[0], 10.6), (b[1], 9.7), (b[1], 9.9)]);
    assert_eq!(mon.drifted(&p, 0.25), vec![]);

    assert!(mon.adapt_if_drifted(&mut p, 0.25).is_none());
    // Quiet interval: the planner's assumed rates are untouched and the
    // sketches keep accumulating (a later sample can still tip them).
    assert_eq!(p.catalog().stream(b[0]).rate, 10.0);
    assert_eq!(p.catalog().stream(b[1]).rate, 10.0);
    assert_eq!(mon.estimates().len(), 2);
}

#[test]
fn monitor_triggers_on_drift_applies_medians_and_clears() {
    let (c, b) = system(2, 2, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    let q = p.submit(&[b[0], b[1]]).expect("valid").query;

    let mut mon = DriftMonitor::new(8, 3);
    // b0's window median is 30 (3x the assumed 10); b1 hovers at ~10.
    mon.observe_all(&[(b[0], 28.0), (b[0], 30.0), (b[0], 31.0)]);
    mon.observe_all(&[(b[1], 9.8), (b[1], 10.2), (b[1], 10.1)]);
    assert_eq!(mon.drifted(&p, 0.5), vec![b[0]]);

    let report = mon.adapt_if_drifted(&mut p, 0.5).expect("b0 drifted 3x");
    assert_eq!(report.drifted_streams, vec![b[0]]);
    assert_eq!(report.replanned, vec![q]);
    assert_eq!(report.readmitted, vec![q]);
    // Both estimates were pushed through: the window medians become the
    // planner's new assumed rates — including the sub-threshold stream.
    assert_eq!(p.catalog().stream(b[0]).rate, 30.0);
    assert_eq!(p.catalog().stream(b[1]).rate, 10.1);
    // Sketches cleared for the next interval: a second call is silent.
    assert!(mon.estimates().is_empty());
    assert!(mon.adapt_if_drifted(&mut p, 0.5).is_none());
}

#[test]
fn monitor_respects_min_samples() {
    let (c, b) = system(2, 2, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    p.submit(&[b[0], b[1]]).expect("valid");

    let mut mon = DriftMonitor::new(8, 3);
    mon.observe(b[0], 50.0);
    mon.observe(b[0], 50.0);
    // Two loud samples, but min_samples = 3: the estimate doesn't count
    // yet, so no drift is reported and no adaptation fires.
    assert!(mon.estimates().is_empty());
    assert!(mon.drifted(&p, 0.25).is_empty());
    assert!(mon.adapt_if_drifted(&mut p, 0.25).is_none());
    assert_eq!(p.catalog().stream(b[0]).rate, 10.0);

    mon.observe(b[0], 50.0);
    assert_eq!(mon.estimates(), vec![(b[0], 50.0)]);
    assert_eq!(mon.drifted(&p, 0.25), vec![b[0]]);
}

#[test]
fn monitor_window_median_ignores_a_single_spike() {
    let (c, b) = system(2, 2, 1000.0, 1000.0, 10_000.0);
    let mut p = planner(c);
    p.submit(&[b[0], b[1]]).expect("valid");

    let mut mon = DriftMonitor::new(5, 3);
    // Four on-target samples and one wild spike: the median shrugs it off.
    mon.observe_all(&[
        (b[0], 10.1),
        (b[0], 9.9),
        (b[0], 400.0),
        (b[0], 10.0),
        (b[0], 10.2),
    ]);
    assert_eq!(mon.estimates(), vec![(b[0], 10.1)]);
    assert!(mon.adapt_if_drifted(&mut p, 0.25).is_none());
}
