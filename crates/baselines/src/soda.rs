//! Re-implementation of SODA's initial query planning (paper §V-B).
//!
//! SODA (Wolf et al., Middleware'08) is the scheduler of IBM System S. The
//! paper re-implements its "basic functionality": the **macroQ** admission
//! stage, operator placement via optimisation (**macroW**) and the
//! **miniW** local-improvement heuristic, with reuse obtained by *gluing*
//! user-supplied query templates ("each stream is generated once and used
//! by all other queries when needed"). The key contrasts with SQPR, which
//! the experiments exercise:
//!
//! - one *fixed* template per query (a left-deep join tree in submission
//!   order) — no plan-shape flexibility;
//! - no relaying: operator inputs are received once from the original
//!   producing host and then only propagated host-locally;
//! - no re-planning of already admitted queries;
//! - admission (macroQ) checks aggregate resource availability before
//!   placement; placement failure then rejects outright.

use std::collections::BTreeSet;

use sqpr_core::ObjectiveWeights;
use sqpr_dsps::{Catalog, DeploymentState, HostId, OperatorId, QueryId, StreamId};

use crate::trees::JoinTree;

/// SODA-style planner.
pub struct SodaPlanner {
    catalog: Catalog,
    state: DeploymentState,
    weights: ObjectiveWeights,
    next_query: u32,
    /// miniW improvement passes per admitted query.
    pub miniw_passes: usize,
}

impl SodaPlanner {
    pub fn new(catalog: Catalog) -> Self {
        let weights = ObjectiveWeights::load_balance(&catalog);
        SodaPlanner {
            catalog,
            state: DeploymentState::new(),
            weights,
            next_query: 0,
            miniw_passes: 2,
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn state(&self) -> &DeploymentState {
        &self.state
    }

    pub fn num_admitted(&self) -> usize {
        self.state.num_admitted()
    }

    /// Submits a query with its fixed user template (left-deep tree in the
    /// given order). Returns whether it was admitted.
    pub fn submit(&mut self, bases: &[StreamId]) -> bool {
        let q = QueryId(self.next_query);
        self.next_query += 1;

        let template = JoinTree::left_deep(bases);
        let interned = template.intern(&mut self.catalog, 0);
        let result = interned.root;

        if self.state.provider_of(result).is_some() {
            self.state.admit_query(q, result);
            return true;
        }

        // Gluing: template operators whose output already exists somewhere
        // are not instantiated; their outputs are consumed from the
        // producing host.
        let fresh: Vec<OperatorId> = interned
            .operators
            .iter()
            .copied()
            .filter(|&o| {
                let out = self.catalog.operator(o).output;
                self.state.hosts_with(out).next().is_none()
            })
            .collect();

        // macroQ: aggregate admission check before placement.
        let cpu_needed: f64 = fresh
            .iter()
            .map(|&o| self.catalog.operator(o).cpu_cost)
            .sum();
        let cpu = self.state.cpu_usage(&self.catalog);
        let spare: f64 = self
            .catalog
            .hosts()
            .map(|h| (self.catalog.host(h).cpu_capacity - cpu[h.index()]).max(0.0))
            .sum();
        if cpu_needed > spare + 1e-9 {
            return false;
        }

        // macroW: place fresh operators in topological order on the host
        // minimising incoming transfer rate, load-balance tie-break.
        let mut candidate = self.state.clone();
        let mut placed: Vec<(HostId, OperatorId)> = Vec::new();
        for &o in &fresh {
            match self.place_operator(&candidate, o) {
                Some(h) => {
                    install_operator(&mut candidate, &self.catalog, h, o);
                    placed.push((h, o));
                }
                None => return false, // no feasible host: reject outright
            }
        }

        // Client delivery feasibility from the result's host.
        let Some(result_host) = candidate.hosts_with(result).next() else {
            return false;
        };
        let net = candidate.net_usage(&self.catalog);
        if net[result_host.index()].0 + self.catalog.stream(result).rate
            > self.catalog.host(result_host).bandwidth_out + 1e-9
        {
            return false;
        }

        // miniW: local improvement by moving newly placed operators.
        for _ in 0..self.miniw_passes {
            let mut improved = false;
            #[allow(clippy::needless_range_loop, reason = "`i` also writes into `placed`")]
            for i in 0..placed.len() {
                let (h, o) = placed[i];
                if let Some(better) = self.try_move(&candidate, h, o) {
                    let mut next = candidate.clone();
                    remove_operator(&mut next, &self.catalog, h, o);
                    install_operator(&mut next, &self.catalog, better, o);
                    if next.is_valid(&self.catalog) && self.score(&next) > self.score(&candidate) {
                        candidate = next;
                        placed[i] = (better, o);
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        candidate.set_provided(result, result_host);
        if !candidate.is_valid(&self.catalog) {
            return false;
        }
        self.state = candidate;
        self.state.admit_query(q, result);
        true
    }

    /// Host choice for one operator: feasible host minimising added
    /// transfer rate, breaking ties by lowest CPU utilisation.
    fn place_operator(&self, state: &DeploymentState, o: OperatorId) -> Option<HostId> {
        let op = self.catalog.operator(o);
        let cpu = state.cpu_usage(&self.catalog);
        let net = state.net_usage(&self.catalog);
        let links = state.link_usage(&self.catalog);
        let mut best: Option<(HostId, f64, f64)> = None;
        'host: for h in self.catalog.hosts() {
            if cpu[h.index()] + op.cpu_cost > self.catalog.host(h).cpu_capacity + 1e-9 {
                continue;
            }
            // Each input must be local, a local base, or fetched directly
            // from a host that generates/holds it (no relaying).
            let mut transfer = 0.0;
            let mut in_used = net[h.index()].1;
            for &s in &op.inputs {
                if state.is_available(h, s) || self.catalog.is_base_at(s, h) {
                    continue;
                }
                let Some(g) = self.direct_source(state, s, h) else {
                    continue 'host;
                };
                let rate = self.catalog.stream(s).rate;
                let lu = links.get(&(g, h)).copied().unwrap_or(0.0);
                if lu + rate > self.catalog.topology().link(g, h) + 1e-9
                    || net[g.index()].0 + rate > self.catalog.host(g).bandwidth_out + 1e-9
                    || in_used + rate > self.catalog.host(h).bandwidth_in + 1e-9
                {
                    continue 'host;
                }
                transfer += rate;
                in_used += rate;
            }
            let util = cpu[h.index()] / self.catalog.host(h).cpu_capacity.max(1e-9);
            let better = match &best {
                None => true,
                Some((_, t, u)) => transfer < *t - 1e-12 || (transfer <= *t + 1e-12 && util < *u),
            };
            if better {
                best = Some((h, transfer, util));
            }
        }
        best.map(|(h, _, _)| h)
    }

    /// A host that can send `s` directly (producer or source; SODA does not
    /// relay through third hosts).
    fn direct_source(&self, state: &DeploymentState, s: StreamId, to: HostId) -> Option<HostId> {
        if let Some(src) = self.catalog.source_host(s) {
            if src != to {
                return Some(src);
            }
        }
        // A host where an operator produces s.
        for &(h, o) in state.placements() {
            if h != to && self.catalog.operator(o).output == s {
                return Some(h);
            }
        }
        None
    }

    /// A candidate better host for a placed operator (miniW move).
    fn try_move(&self, state: &DeploymentState, current: HostId, o: OperatorId) -> Option<HostId> {
        let cpu = state.cpu_usage(&self.catalog);
        let op = self.catalog.operator(o);
        let mut best: Option<(HostId, f64)> = None;
        for h in self.catalog.hosts() {
            if h == current {
                continue;
            }
            let cap = self.catalog.host(h).cpu_capacity;
            if cpu[h.index()] + op.cpu_cost > cap + 1e-9 {
                continue;
            }
            let util = cpu[h.index()] / cap.max(1e-9);
            if best.is_none_or(|(_, u)| util < u) {
                best = Some((h, util));
            }
        }
        best.map(|(h, _)| h)
    }

    /// Load-balance score (higher is better): the negated weighted
    /// objective terms SODA optimises (network + max CPU).
    fn score(&self, state: &DeploymentState) -> f64 {
        let cpu = state.cpu_usage(&self.catalog);
        let max_cpu = cpu.iter().copied().fold(0.0f64, f64::max);
        let net: f64 = state
            .flows()
            .iter()
            .map(|&(_, _, s)| self.catalog.stream(s).rate)
            .sum();
        -(self.weights.lambda2 * net + self.weights.lambda4 * max_cpu)
    }
}

/// Adds operator `o` at `h`, wiring direct input transfers.
fn install_operator(state: &mut DeploymentState, catalog: &Catalog, h: HostId, o: OperatorId) {
    let inputs: Vec<StreamId> = catalog.operator(o).inputs.clone();
    for s in inputs {
        if state.is_available(h, s) || catalog.is_base_at(s, h) {
            continue;
        }
        // Find the producing/source host (mirrors `direct_source`).
        let from = catalog.source_host(s).filter(|&src| src != h).or_else(|| {
            state
                .placements()
                .iter()
                .find(|&&(g, op)| g != h && catalog.operator(op).output == s)
                .map(|&(g, _)| g)
        });
        if let Some(g) = from {
            state.add_flow(g, h, s);
            state.add_available(h, s);
        }
    }
    state.add_placement(h, o);
    state.add_available(h, catalog.operator(o).output);
}

/// Removes operator `o` from `h` along with its exclusive input flows.
fn remove_operator(state: &mut DeploymentState, catalog: &Catalog, h: HostId, o: OperatorId) {
    state.remove_placement(h, o);
    // Drop input flows no longer needed by any remaining operator at h.
    let still_needed: BTreeSet<StreamId> = state
        .placements()
        .iter()
        .filter(|&&(g, _)| g == h)
        .flat_map(|&(_, op)| catalog.operator(op).inputs.clone())
        .collect();
    let inputs = catalog.operator(o).inputs.clone();
    for s in inputs {
        if !still_needed.contains(&s) {
            let flows: Vec<_> = state
                .flows()
                .iter()
                .copied()
                .filter(|&(_, to, fs)| to == h && fs == s)
                .collect();
            for (g, to, fs) in flows {
                state.remove_flow(g, to, fs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpr_dsps::{CostModel, HostSpec};

    fn setup() -> (Catalog, Vec<StreamId>) {
        let mut c = Catalog::uniform(3, HostSpec::new(50.0, 100.0), 1000.0, CostModel::default());
        let b = (0..6)
            .map(|i| c.add_base_stream(HostId((i % 3) as u32), 10.0, i as u64))
            .collect();
        (c, b)
    }

    #[test]
    fn admits_simple_queries() {
        let (c, b) = setup();
        let mut soda = SodaPlanner::new(c);
        assert!(soda.submit(&[b[0], b[1]]));
        assert!(
            soda.state().is_valid(soda.catalog()),
            "{:?}",
            soda.state().validate(soda.catalog())
        );
        assert_eq!(soda.num_admitted(), 1);
    }

    #[test]
    fn glues_shared_subqueries() {
        let (c, b) = setup();
        let mut soda = SodaPlanner::new(c);
        assert!(soda.submit(&[b[0], b[1]]));
        let ops_before = soda.state().placements().len();
        assert!(soda.submit(&[b[0], b[1], b[2]]));
        // The (b0 ⋈ b1) prefix is glued: only one new operator.
        assert_eq!(soda.state().placements().len(), ops_before + 1);
        assert!(soda.state().is_valid(soda.catalog()));
    }

    #[test]
    fn rejects_when_no_host_fits() {
        let mut c = Catalog::uniform(2, HostSpec::new(10.0, 100.0), 1000.0, CostModel::default());
        let b0 = c.add_base_stream(HostId(0), 10.0, 0);
        let b1 = c.add_base_stream(HostId(1), 10.0, 1);
        let mut soda = SodaPlanner::new(c);
        // Join cost 20 > any host's 10.
        assert!(!soda.submit(&[b0, b1]));
        assert_eq!(soda.num_admitted(), 0);
    }

    #[test]
    fn identical_query_reuses_provision() {
        let (c, b) = setup();
        let mut soda = SodaPlanner::new(c);
        assert!(soda.submit(&[b[0], b[1]]));
        let ops = soda.state().placements().len();
        assert!(soda.submit(&[b[0], b[1]]));
        assert_eq!(soda.state().placements().len(), ops);
        assert_eq!(soda.num_admitted(), 2);
    }
}
