//! Failure-storm recovery: mass re-admission with graceful degradation.
//!
//! A host or link failure displaces the queries deployed on it.
//! [`recover_from_failures`] reconnects orphaned base-stream feeds
//! ([`SqprPlanner::rehome_orphaned_sources`]), audits the fault
//! ([`SqprPlanner::absorb_failures`]) and replays the displaced queries in
//! ascending id order through [`SqprPlanner::replan_query`] — the planning
//! round every submission runs, on the warm path: the skeleton survives
//! the fault, and the next extension refreshes its capacity rows from the
//! post-fault catalog.
//!
//! The storm is this module's fallback policy over rounds that do not
//! admit, under a storm-wide [`StormBudget`] (cumulative nodes): the
//! **greedy** baseline placement ([`SqprPlanner::admit_greedy`],
//! installed into the managed deployment), else a best-effort **pin** to
//! the surviving host with the most remaining CPU (oversubscribed, outside
//! the managed deployment — [`QueryRecovery::degraded_host`]), both
//! [`RecoveryMode::Degraded`]; **drop** ([`RecoveryMode::Dropped`]) only
//! when no host survives. A [`StormReport`] accounts for every displaced
//! query. The storm is a pure function of the planner state, the fault set
//! and the budget.

use std::collections::BTreeMap;

use sqpr_dsps::{HostId, QueryId, StreamId};
use sqpr_milp::MilpStatus;

use crate::planner::{PlanningOutcome, SqprPlanner};

/// How one displaced query came back (or did not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Re-admitted by the solver through the warm re-planning path.
    Replanned,
    /// Served at reduced quality: the greedy baseline placement, or — when
    /// no capacity-respecting placement exists — a best-effort pin to the
    /// least-loaded surviving host ([`QueryRecovery::degraded_host`]).
    Degraded,
    /// Not served: no host survives to run it, even oversubscribed.
    Dropped,
}

/// Storm-wide recovery budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct StormBudget {
    /// Cumulative branch & bound nodes across the storm's solver rounds;
    /// `None` is unlimited.
    pub max_nodes: Option<usize>,
}

impl StormBudget {
    /// Node-budgeted storm.
    pub fn nodes(max_nodes: usize) -> Self {
        StormBudget {
            max_nodes: Some(max_nodes),
        }
    }

    /// Unlimited storm: every displaced query gets a full solver round.
    pub fn unlimited() -> Self {
        StormBudget::default()
    }
}

/// Per-query record of one storm round.
#[derive(Debug, Clone)]
pub struct QueryRecovery {
    pub query: QueryId,
    pub mode: RecoveryMode,
    /// Solver status of the query's round: the planning outcome's status
    /// when the solver ran, `Unknown` when the round was budget-skipped
    /// straight to the fallback. Distinguishes budget-limited rounds from
    /// proven ones.
    pub status: MilpStatus,
    /// The solver outcome, when a solver round ran.
    pub outcome: Option<PlanningOutcome>,
    /// Set when the query was pinned best-effort (mode `Degraded`, bottom
    /// rung): the surviving host it runs on, oversubscribed, outside the
    /// optimiser-managed deployment.
    pub degraded_host: Option<HostId>,
}

/// Full account of one recovery storm: every displaced query appears in
/// `recoveries` exactly once — there is no silent-drop path.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Hosts down during the storm (ascending).
    pub failed_hosts: Vec<HostId>,
    /// Base-stream feeds reconnected to surviving ingest hosts before
    /// re-admission, as `(stream, from, to)`.
    pub rehomed: Vec<(StreamId, HostId, HostId)>,
    /// Placements lost to the fault (pre-recovery).
    pub lost_placements: usize,
    /// Flows lost to the fault (pre-recovery).
    pub lost_flows: usize,
    /// One record per displaced query, in re-admission (ascending id)
    /// order.
    pub recoveries: Vec<QueryRecovery>,
    /// Branch & bound nodes spent by the storm's solver rounds.
    pub nodes_spent: usize,
}

impl StormReport {
    /// Queries re-admitted through the solver.
    pub fn replanned(&self) -> usize {
        self.count(RecoveryMode::Replanned)
    }

    /// Queries served by the greedy fallback.
    pub fn degraded(&self) -> usize {
        self.count(RecoveryMode::Degraded)
    }

    /// Queries that could not be served at all.
    pub fn dropped(&self) -> usize {
        self.count(RecoveryMode::Dropped)
    }

    /// Fraction of displaced queries that ended `Degraded` (0 when none
    /// were displaced).
    pub fn degraded_fraction(&self) -> f64 {
        if self.recoveries.is_empty() {
            0.0
        } else {
            self.degraded() as f64 / self.recoveries.len() as f64
        }
    }

    fn count(&self, mode: RecoveryMode) -> usize {
        self.recoveries.iter().filter(|r| r.mode == mode).count()
    }
}

/// Audits the current fault set and re-admits every displaced query under
/// the storm budget (see the module docs for the degradation order).
pub fn recover_from_failures(planner: &mut SqprPlanner, budget: &StormBudget) -> StormReport {
    // Reconnect orphaned feeds first: a query whose raw source died is
    // unservable by solver and greedy alike until the feed has a living
    // ingest host again.
    let rehomed = planner.rehome_orphaned_sources();
    let audit = planner.absorb_failures();
    let mut report = StormReport {
        failed_hosts: audit.failed_hosts.clone(),
        rehomed,
        lost_placements: audit.lost_placements,
        lost_flows: audit.lost_flows,
        recoveries: Vec::with_capacity(audit.displaced.len()),
        nodes_spent: 0,
    };
    let mut pins: BTreeMap<HostId, f64> = BTreeMap::new();
    for &q in &audit.displaced {
        let dry = budget.max_nodes.is_some_and(|n| report.nodes_spent >= n);
        // Budget dry: no solver round, straight to the fallbacks.
        let replan = (!dry).then(|| {
            let replan = planner.replan_query(q);
            // Replans run deadline-free and never park; drop whatever an
            // earlier deadline submission left for a queue not driving us.
            planner.take_preempted_round();
            replan
        });
        let (mode, degraded_host) = match &replan {
            Some(Ok(outcome)) if outcome.admitted => (RecoveryMode::Replanned, None),
            // The query vanished from the registry (cannot happen for
            // audited displacements; defensive) — record, don't panic.
            Some(Err(_)) => (RecoveryMode::Dropped, None),
            // Rejected within budget, or budget dry.
            _ => degrade(planner, &mut pins, q),
        };
        let outcome = replan.and_then(Result::ok);
        report.nodes_spent += outcome.as_ref().map_or(0, |o| o.nodes);
        report.recoveries.push(QueryRecovery {
            query: q,
            mode,
            status: outcome.as_ref().map_or(MilpStatus::Unknown, |o| o.status),
            outcome,
            degraded_host,
        });
    }
    report
}

/// The storm's fallbacks below the solver: greedy baseline placement
/// first (capacity-respecting, installed into the deployment), then a
/// best-effort pin to the least-loaded surviving host (oversubscribed,
/// recorded in the report only), and `Dropped` solely when no host
/// survives.
fn degrade(
    planner: &mut SqprPlanner,
    pins: &mut BTreeMap<HostId, f64>,
    q: QueryId,
) -> (RecoveryMode, Option<HostId>) {
    if planner.admit_greedy(q).unwrap_or(false) {
        return (RecoveryMode::Degraded, None);
    }
    match best_effort_host(planner, pins) {
        Some(h) => {
            *pins.entry(h).or_insert(0.0) += pin_weight(planner, q);
            (RecoveryMode::Degraded, Some(h))
        }
        None => (RecoveryMode::Dropped, None),
    }
}

/// The surviving host with the most remaining CPU, counting earlier pins
/// at their queries' estimated load; ties break to the lowest host id
/// (deterministic). A NaN residual (a NaN capacity) ranks worst.
fn best_effort_host(planner: &SqprPlanner, pins: &BTreeMap<HostId, f64>) -> Option<HostId> {
    let catalog = planner.catalog();
    let usage = planner.state().cpu_usage(catalog);
    catalog
        .hosts()
        .filter(|&h| !catalog.is_host_failed(h))
        .map(|h| {
            let pinned = pins.get(&h).copied().unwrap_or(0.0);
            (h, catalog.host(h).cpu_capacity - usage[h.index()] - pinned)
        })
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or_else(|| b.1.is_nan().cmp(&a.1.is_nan()))
                .then_with(|| b.0.cmp(&a.0))
        })
        .map(|(h, _)| h)
}

/// Estimated load of a pinned query: its result stream's rate — a crude
/// but deterministic proxy that keeps successive pins spreading across
/// survivors instead of dogpiling one host.
fn pin_weight(planner: &SqprPlanner, q: QueryId) -> f64 {
    planner
        .queries()
        .iter()
        .find(|spec| spec.id == q)
        .map(|spec| planner.catalog().stream(spec.result).rate.max(1e-9))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlannerConfig;
    use sqpr_dsps::{Catalog, CostModel, HostSpec, NetworkTopology};

    fn planner(cpus: &[f64]) -> SqprPlanner {
        let hosts = cpus.iter().map(|&c| HostSpec::new(c, 10.0)).collect();
        let topology = NetworkTopology::full_mesh(cpus.len(), 10.0);
        let catalog = Catalog::new(hosts, topology, CostModel::default());
        let config = PlannerConfig::new(&catalog);
        SqprPlanner::new(catalog, config)
    }

    /// A NaN residual ranks below every number wherever it is scanned;
    /// number-to-number comparisons (±0 ties included) are unchanged.
    #[test]
    fn best_effort_host_ranks_nan_worst() {
        let pins = BTreeMap::new();
        for (cpus, want) in [
            (vec![f64::NAN, 1.0, 2.0], 2),
            (vec![1.0, f64::NAN, 2.0], 2),
            (vec![1.0, 2.0, f64::NAN], 1),
            (vec![2.0, f64::NAN, f64::NAN], 0),
            (vec![f64::NAN, f64::NAN], 0),
            (vec![0.0, -0.0], 0),
            (vec![-0.0, 0.0], 0),
        ] {
            let got = best_effort_host(&planner(&cpus), &pins);
            assert_eq!(got, Some(HostId(want)), "cpus {cpus:?}");
        }
    }
}
