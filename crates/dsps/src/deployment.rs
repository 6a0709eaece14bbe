//! Global deployment state: the live counterpart of the decision variables
//! `(d, x, y, z)` of the optimisation model (paper §III-B).
//!
//! Tracks which host provides each demanded stream (`d`), the inter-host
//! stream flows (`x`), stream availability per host (`y`) and operator
//! placements (`z`), together with residual-resource accounting against the
//! catalog's capacities. [`DeploymentState::validate`] re-derives
//! availability as a least fixpoint from base streams and placed operators,
//! which simultaneously checks the availability constraints (III.5) and
//! causality — a self-sustaining flow cycle is underivable, mirroring the
//! role of the paper's acyclicity constraints (III.7).

use std::collections::{BTreeMap, BTreeSet};

use crate::catalog::Catalog;
use crate::ids::{HostId, OperatorId, QueryId, StreamId};
use crate::next_revision;

/// Live allocation state of the whole DSPS.
#[derive(Debug, Clone, Default)]
pub struct DeploymentState {
    /// Renewed by every mutation; see [`Self::revision`].
    revision: u64,
    /// `d`: serving host per demanded stream (III.4b: at most one).
    provided: BTreeMap<StreamId, HostId>,
    /// `x`: inter-host flows.
    flows: BTreeSet<(HostId, HostId, StreamId)>,
    /// `y`: stream availability per host.
    available: BTreeSet<(HostId, StreamId)>,
    /// `z`: operator placements.
    placements: BTreeSet<(HostId, OperatorId)>,
    /// Admitted queries and their demanded streams.
    admitted: BTreeMap<QueryId, StreamId>,
}

/// Violations reported by [`DeploymentState::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// An availability claim could not be derived from sources/operators
    /// (covers III.5a and causality).
    Underivable { host: HostId, stream: StreamId },
    /// An operator is placed where an input stream is unavailable (III.5b).
    InputUnavailable { host: HostId, operator: OperatorId },
    /// A flow sends a stream its sender does not have (III.5c).
    FlowWithoutStream { from: HostId, stream: StreamId },
    /// A demanded stream is served by a host that does not have it (III.4a).
    ProvidedUnavailable { host: HostId, stream: StreamId },
    /// Link capacity exceeded (III.6a).
    LinkOverload {
        from: HostId,
        to: HostId,
        used: f64,
        cap: f64,
    },
    /// Incoming host bandwidth exceeded (III.6b).
    InBandwidthOverload { host: HostId, used: f64, cap: f64 },
    /// Outgoing host bandwidth exceeded (III.6c).
    OutBandwidthOverload { host: HostId, used: f64, cap: f64 },
    /// CPU capacity exceeded (III.6d).
    CpuOverload { host: HostId, used: f64, cap: f64 },
    /// Memory capacity exceeded (the §VII memory extension).
    MemoryOverload { host: HostId, used: f64, cap: f64 },
    /// An admitted query's stream has no serving host.
    QueryUnserved { query: QueryId, stream: StreamId },
}

impl DeploymentState {
    pub fn new() -> Self {
        Self::default()
    }

    // ----- mutation -------------------------------------------------------

    pub fn set_provided(&mut self, stream: StreamId, host: HostId) {
        self.revision = next_revision();
        self.provided.insert(stream, host);
    }

    pub fn clear_provided(&mut self, stream: StreamId) {
        self.revision = next_revision();
        self.provided.remove(&stream);
    }

    pub fn add_flow(&mut self, from: HostId, to: HostId, stream: StreamId) {
        assert!(from != to, "flows connect distinct hosts");
        self.revision = next_revision();
        self.flows.insert((from, to, stream));
    }

    pub fn remove_flow(&mut self, from: HostId, to: HostId, stream: StreamId) {
        self.revision = next_revision();
        self.flows.remove(&(from, to, stream));
    }

    pub fn add_available(&mut self, host: HostId, stream: StreamId) {
        self.revision = next_revision();
        self.available.insert((host, stream));
    }

    pub fn add_placement(&mut self, host: HostId, op: OperatorId) {
        self.revision = next_revision();
        self.placements.insert((host, op));
    }

    pub fn remove_placement(&mut self, host: HostId, op: OperatorId) {
        self.revision = next_revision();
        self.placements.remove(&(host, op));
    }

    pub fn admit_query(&mut self, q: QueryId, stream: StreamId) {
        self.revision = next_revision();
        self.admitted.insert(q, stream);
    }

    pub fn remove_query(&mut self, q: QueryId) -> Option<StreamId> {
        self.revision = next_revision();
        self.admitted.remove(&q)
    }

    /// Replaces the allocation variables wholesale (used when the planner
    /// decodes a fresh MILP solution). Admitted queries are preserved.
    pub fn replace_allocation(
        &mut self,
        provided: BTreeMap<StreamId, HostId>,
        flows: BTreeSet<(HostId, HostId, StreamId)>,
        available: BTreeSet<(HostId, StreamId)>,
        placements: BTreeSet<(HostId, OperatorId)>,
    ) {
        self.revision = next_revision();
        self.provided = provided;
        self.flows = flows;
        self.available = available;
        self.placements = placements;
    }

    // ----- accessors ------------------------------------------------------

    /// Identifies this state's contents: every mutation draws a fresh,
    /// process-unique value and clones keep theirs, so two states with the
    /// same revision hold the same allocation and admissions. (The converse
    /// does not hold — equal contents reached separately differ here.)
    /// Planner-side memos keyed on a deployment compare this instead of the
    /// deployment.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    pub fn provider_of(&self, stream: StreamId) -> Option<HostId> {
        self.provided.get(&stream).copied()
    }

    pub fn provided(&self) -> &BTreeMap<StreamId, HostId> {
        &self.provided
    }

    pub fn flows(&self) -> &BTreeSet<(HostId, HostId, StreamId)> {
        &self.flows
    }

    pub fn available(&self) -> &BTreeSet<(HostId, StreamId)> {
        &self.available
    }

    pub fn is_available(&self, host: HostId, stream: StreamId) -> bool {
        self.available.contains(&(host, stream))
    }

    pub fn placements(&self) -> &BTreeSet<(HostId, OperatorId)> {
        &self.placements
    }

    pub fn is_placed(&self, host: HostId, op: OperatorId) -> bool {
        self.placements.contains(&(host, op))
    }

    pub fn admitted(&self) -> &BTreeMap<QueryId, StreamId> {
        &self.admitted
    }

    pub fn num_admitted(&self) -> usize {
        self.admitted.len()
    }

    /// Hosts that currently have stream `s`.
    pub fn hosts_with(&self, s: StreamId) -> impl Iterator<Item = HostId> + '_ {
        self.available
            .iter()
            .filter(move |&&(_, st)| st == s)
            .map(|&(h, _)| h)
    }

    // ----- resource accounting --------------------------------------------

    /// Per-host CPU usage from operator placements.
    pub fn cpu_usage(&self, catalog: &Catalog) -> Vec<f64> {
        let mut cpu = vec![0.0; catalog.num_hosts()];
        for &(h, o) in &self.placements {
            cpu[h.index()] += catalog.operator(o).cpu_cost;
        }
        cpu
    }

    /// Per-host window-state memory usage from operator placements.
    pub fn memory_usage(&self, catalog: &Catalog) -> Vec<f64> {
        let mut mem = vec![0.0; catalog.num_hosts()];
        for &(h, o) in &self.placements {
            mem[h.index()] += catalog.operator(o).memory_cost;
        }
        mem
    }

    /// Per-host network usage: `(out, in)` aggregated over flows and client
    /// deliveries (the `d` terms of III.6c).
    pub fn net_usage(&self, catalog: &Catalog) -> Vec<(f64, f64)> {
        let mut net = vec![(0.0, 0.0); catalog.num_hosts()];
        for &(from, to, s) in &self.flows {
            let rate = catalog.stream(s).rate;
            net[from.index()].0 += rate;
            net[to.index()].1 += rate;
        }
        for (&s, &h) in &self.provided {
            net[h.index()].0 += catalog.stream(s).rate;
        }
        net
    }

    /// Per-link usage keyed by `(from, to)`.
    pub fn link_usage(&self, catalog: &Catalog) -> BTreeMap<(HostId, HostId), f64> {
        let mut links: BTreeMap<(HostId, HostId), f64> = BTreeMap::new();
        for &(from, to, s) in &self.flows {
            *links.entry((from, to)).or_default() += catalog.stream(s).rate;
        }
        links
    }

    // ----- validation -----------------------------------------------------

    /// Recomputes the availability least fixpoint from base-stream sources,
    /// placed operators and flows. Anything derivable is returned; claimed
    /// availability outside this set is bogus (acausal).
    pub fn derive_availability(&self, catalog: &Catalog) -> BTreeSet<(HostId, StreamId)> {
        let mut derived: BTreeSet<(HostId, StreamId)> = BTreeSet::new();
        for h in catalog.hosts() {
            // A failed host sources nothing: its base seeds are dark until
            // restoration, so derivations rooted there collapse.
            if catalog.is_host_failed(h) {
                continue;
            }
            for &s in catalog.base_streams_at(h) {
                derived.insert((h, s));
            }
        }
        // Each round visits only what has not fired yet: an operator fires
        // once its inputs are derivable, a flow once its sender's copy is.
        // Either then has nothing further to add, so rounds shrink instead
        // of re-reading the whole deployment until nothing moves.
        let mut waiting_ops: Vec<(HostId, OperatorId)> = self.placements.iter().copied().collect();
        let mut waiting_flows: Vec<(HostId, HostId, StreamId)> =
            self.flows.iter().copied().collect();
        loop {
            let before = derived.len();
            waiting_ops.retain(|&(h, o)| {
                let op = catalog.operator(o);
                let fires = derived.contains(&(h, op.output))
                    || op.inputs.iter().all(|&i| derived.contains(&(h, i)));
                if fires {
                    derived.insert((h, op.output));
                }
                !fires
            });
            waiting_flows.retain(|&(from, to, s)| {
                let fires = derived.contains(&(from, s));
                if fires {
                    derived.insert((to, s));
                }
                !fires
            });
            if derived.len() == before {
                return derived;
            }
        }
    }

    /// Full validation against the catalog: availability closure (III.5 +
    /// causality), demand constraints (III.4), resource limits (III.6) and
    /// admitted-query service. Returns all violations found.
    pub fn validate(&self, catalog: &Catalog) -> Vec<DeployError> {
        let mut errs = Vec::new();
        let derived = self.derive_availability(catalog);

        for &(h, s) in &self.available {
            if !derived.contains(&(h, s)) {
                errs.push(DeployError::Underivable { host: h, stream: s });
            }
        }
        for &(h, o) in &self.placements {
            let op = catalog.operator(o);
            for &i in &op.inputs {
                if !derived.contains(&(h, i)) {
                    errs.push(DeployError::InputUnavailable {
                        host: h,
                        operator: o,
                    });
                    break;
                }
            }
        }
        for &(from, _, s) in &self.flows {
            if !derived.contains(&(from, s)) {
                errs.push(DeployError::FlowWithoutStream { from, stream: s });
            }
        }
        for (&s, &h) in &self.provided {
            if !derived.contains(&(h, s)) {
                errs.push(DeployError::ProvidedUnavailable { host: h, stream: s });
            }
        }
        for (&q, &s) in &self.admitted {
            if !self.provided.contains_key(&s) {
                errs.push(DeployError::QueryUnserved {
                    query: q,
                    stream: s,
                });
            }
        }

        // Resources.
        const TOL: f64 = 1e-6;
        let cpu = self.cpu_usage(catalog);
        for h in catalog.hosts() {
            let cap = catalog.host(h).cpu_capacity;
            if cpu[h.index()] > cap * (1.0 + TOL) + TOL {
                errs.push(DeployError::CpuOverload {
                    host: h,
                    used: cpu[h.index()],
                    cap,
                });
            }
        }
        let mem = self.memory_usage(catalog);
        for h in catalog.hosts() {
            let cap = catalog.host(h).memory_capacity;
            if cap.is_finite() && mem[h.index()] > cap * (1.0 + TOL) + TOL {
                errs.push(DeployError::MemoryOverload {
                    host: h,
                    used: mem[h.index()],
                    cap,
                });
            }
        }
        let net = self.net_usage(catalog);
        for h in catalog.hosts() {
            let spec = catalog.host(h);
            let (out, inn) = net[h.index()];
            if out > spec.bandwidth_out * (1.0 + TOL) + TOL {
                errs.push(DeployError::OutBandwidthOverload {
                    host: h,
                    used: out,
                    cap: spec.bandwidth_out,
                });
            }
            if inn > spec.bandwidth_in * (1.0 + TOL) + TOL {
                errs.push(DeployError::InBandwidthOverload {
                    host: h,
                    used: inn,
                    cap: spec.bandwidth_in,
                });
            }
        }
        for ((from, to), used) in self.link_usage(catalog) {
            let cap = catalog.topology().link(from, to);
            if used > cap * (1.0 + TOL) + TOL {
                errs.push(DeployError::LinkOverload {
                    from,
                    to,
                    used,
                    cap,
                });
            }
        }
        errs
    }

    /// Convenience: true when [`Self::validate`] reports nothing.
    pub fn is_valid(&self, catalog: &Catalog) -> bool {
        self.validate(catalog).is_empty()
    }

    // ----- failure audit --------------------------------------------------

    /// Maps the catalog's current failures onto this deployment: strips
    /// every allocation piece the failures break and reports which admitted
    /// queries lost their provision as a result.
    ///
    /// The sweep is deterministic: (1) placements and availability on
    /// failed hosts go, as do flows touching them; (2) flows over links
    /// whose surviving load exceeds the (possibly degraded) capacity are
    /// dropped in key order until the link fits; (3) availability claims,
    /// flows and provisions are restricted to the re-derived fixpoint; (4)
    /// admitted queries whose demanded stream lost its provider are the
    /// *displaced* set, removed from the survivor's admissions so they can
    /// re-enter admission.
    ///
    /// The survivor state may still hold pieces that no longer serve
    /// anything (e.g. a partial join tree upstream of a dead flow); callers
    /// reclaim those with their usual garbage collection.
    pub fn audit_failures(&self, catalog: &Catalog) -> FailureAudit {
        const TOL: f64 = 1e-6;
        let failed: BTreeSet<HostId> = catalog.failed_hosts().collect();
        let mut s = self.clone();
        s.revision = next_revision();

        // (1) Everything on or through a failed host is gone.
        s.placements.retain(|(h, _)| !failed.contains(h));
        s.available.retain(|(h, _)| !failed.contains(h));
        s.flows
            .retain(|(h, m, _)| !failed.contains(h) && !failed.contains(m));

        // (2) Degraded links: shed flows (ascending key order) until the
        // surviving load fits the effective capacity.
        let mut load: BTreeMap<(HostId, HostId), f64> = BTreeMap::new();
        for &(h, m, st) in &s.flows {
            *load.entry((h, m)).or_default() += catalog.stream(st).rate;
        }
        let mut shed: Vec<(HostId, HostId, StreamId)> = Vec::new();
        for (&(h, m), load) in &mut load {
            let cap = catalog.topology().link(h, m);
            for &(fh, fm, st) in &s.flows {
                if *load <= cap * (1.0 + TOL) + TOL {
                    break;
                }
                if fh == h && fm == m {
                    shed.push((fh, fm, st));
                    *load -= catalog.stream(st).rate;
                }
            }
        }
        for f in shed {
            s.flows.remove(&f);
        }

        // (3) Fixpoint restriction: claims that no longer derive are bogus.
        let derived = s.derive_availability(catalog);
        s.available.retain(|k| derived.contains(k));
        s.flows
            .retain(|&(from, _, st)| derived.contains(&(from, st)));
        s.provided.retain(|&st, &mut h| derived.contains(&(h, st)));

        // (4) Displaced queries lost their provider.
        let displaced: Vec<QueryId> = s
            .admitted
            .iter()
            .filter(|(_, st)| !s.provided.contains_key(st))
            .map(|(&q, _)| q)
            .collect();
        for q in &displaced {
            s.admitted.remove(q);
        }

        FailureAudit {
            failed_hosts: failed.into_iter().collect(),
            lost_placements: self.placements.len() - s.placements.len(),
            lost_flows: self.flows.len() - s.flows.len(),
            displaced,
            survivor: s,
        }
    }
}

/// Result of [`DeploymentState::audit_failures`]: what a failure broke and
/// the deployment that survives it.
#[derive(Debug, Clone)]
pub struct FailureAudit {
    /// Hosts failed in the catalog at audit time, ascending.
    pub failed_hosts: Vec<HostId>,
    /// Admitted queries whose demanded stream lost its provider, ascending
    /// by id (the re-admission order of the recovery storm).
    pub displaced: Vec<QueryId>,
    /// Operator placements stripped by the audit.
    pub lost_placements: usize,
    /// Flows stripped (failed endpoints, shed on degraded links, or
    /// underivable senders).
    pub lost_flows: usize,
    /// The deployment with every broken piece removed and displaced
    /// queries un-admitted. Always [`DeploymentState::is_valid`] for a
    /// previously valid input.
    pub survivor: DeploymentState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::topology::HostSpec;

    fn setup() -> (Catalog, StreamId, StreamId, OperatorId, StreamId) {
        let mut c = Catalog::uniform(3, HostSpec::new(100.0, 100.0), 50.0, CostModel::default());
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(1), 10.0, 2);
        let op = c.intern_join_operator(a, b);
        let ab = c.operator(op).output;
        (c, a, b, op, ab)
    }

    #[test]
    fn empty_state_is_valid() {
        let (c, ..) = setup();
        let d = DeploymentState::new();
        assert!(d.is_valid(&c));
        assert_eq!(d.num_admitted(), 0);
    }

    #[test]
    fn derivation_through_flow_and_operator() {
        let (c, a, b, op, ab) = setup();
        let mut d = DeploymentState::new();
        // Ship b from h1 to h0, join at h0.
        d.add_flow(HostId(1), HostId(0), b);
        d.add_placement(HostId(0), op);
        d.add_available(HostId(0), ab);
        d.set_provided(ab, HostId(0));
        let _ = a;
        assert!(d.is_valid(&c), "{:?}", d.validate(&c));
        let derived = d.derive_availability(&c);
        assert!(derived.contains(&(HostId(0), ab)));
        assert!(derived.contains(&(HostId(0), b)));
    }

    #[test]
    fn relay_chain_derives() {
        let (c, a, _, _, _) = setup();
        let mut d = DeploymentState::new();
        // a: h0 -> h2 -> h1 (h2 relays).
        d.add_flow(HostId(0), HostId(2), a);
        d.add_flow(HostId(2), HostId(1), a);
        assert!(d.is_valid(&c));
        let derived = d.derive_availability(&c);
        assert!(derived.contains(&(HostId(1), a)));
    }

    #[test]
    fn acausal_cycle_rejected() {
        let (c, _, b, op, ab) = setup();
        let _ = (b, op);
        let mut d = DeploymentState::new();
        // ab circulates between h1 and h2 but nobody produces it.
        d.add_flow(HostId(1), HostId(2), ab);
        d.add_flow(HostId(2), HostId(1), ab);
        let errs = d.validate(&c);
        assert!(
            errs.iter()
                .any(|e| matches!(e, DeployError::FlowWithoutStream { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn operator_without_inputs_rejected() {
        let (c, _, _, op, _) = setup();
        let mut d = DeploymentState::new();
        d.add_placement(HostId(2), op); // h2 has neither a nor b
        let errs = d.validate(&c);
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::InputUnavailable { .. })));
    }

    #[test]
    fn memory_overload_detected() {
        let mut host = HostSpec::new(1000.0, 1e9);
        host.memory_capacity = 1.0;
        let mut c = Catalog::new(
            vec![host],
            crate::topology::NetworkTopology::full_mesh(1, 1e9),
            CostModel::default(),
        );
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(0), 10.0, 2);
        let op = c.intern_join_operator(a, b); // memory = 0.5 * 20 = 10 > 1
        let mut d = DeploymentState::new();
        d.add_placement(HostId(0), op);
        let errs = d.validate(&c);
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::MemoryOverload { .. })));
    }

    #[test]
    fn cpu_overload_detected() {
        let mut c = Catalog::uniform(1, HostSpec::new(0.5, 1e9), 1e9, CostModel::default());
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(0), 10.0, 2);
        let op = c.intern_join_operator(a, b); // cpu = 20 > 0.5
        let mut d = DeploymentState::new();
        d.add_placement(HostId(0), op);
        let errs = d.validate(&c);
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::CpuOverload { .. })));
    }

    #[test]
    fn bandwidth_and_link_overload_detected() {
        let mut c = Catalog::uniform(2, HostSpec::new(100.0, 5.0), 5.0, CostModel::default());
        let a = c.add_base_stream(HostId(0), 10.0, 1); // rate 10 > caps of 5
        let mut d = DeploymentState::new();
        d.add_flow(HostId(0), HostId(1), a);
        let errs = d.validate(&c);
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::LinkOverload { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::OutBandwidthOverload { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::InBandwidthOverload { .. })));
    }

    #[test]
    fn provided_stream_counts_against_out_bandwidth() {
        let mut c = Catalog::uniform(1, HostSpec::new(100.0, 15.0), 1e9, CostModel::default());
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let mut d = DeploymentState::new();
        d.set_provided(a, HostId(0));
        let net = d.net_usage(&c);
        assert_eq!(net[0].0, 10.0);
        assert!(d.is_valid(&c));
    }

    #[test]
    fn host_failure_displaces_served_query() {
        let (mut c, _, b, op, ab) = setup();
        let mut d = DeploymentState::new();
        d.add_flow(HostId(1), HostId(0), b);
        d.add_placement(HostId(0), op);
        d.add_available(HostId(0), ab);
        d.set_provided(ab, HostId(0));
        d.admit_query(QueryId(7), ab);
        assert!(d.is_valid(&c));

        // Failing the join host breaks the placement and the provision.
        assert!(c.fail_host(HostId(0)));
        let audit = d.audit_failures(&c);
        assert_eq!(audit.failed_hosts, vec![HostId(0)]);
        assert_eq!(audit.displaced, vec![QueryId(7)]);
        assert_eq!(audit.lost_placements, 1);
        assert_eq!(audit.lost_flows, 1);
        assert!(audit.survivor.placements().is_empty());
        assert!(audit.survivor.provided().is_empty());
        assert!(audit.survivor.admitted().is_empty());
        assert!(audit.survivor.is_valid(&c), "survivor must validate");

        // Restoration brings the substrate back; the old state validates
        // again (recovery is the planner's job, the audit is read-only).
        assert!(c.restore_host(HostId(0)));
        assert!(d.is_valid(&c));
    }

    #[test]
    fn source_failure_collapses_downstream_derivations() {
        let (mut c, _, b, op, ab) = setup();
        let mut d = DeploymentState::new();
        d.add_flow(HostId(1), HostId(0), b);
        d.add_placement(HostId(0), op);
        d.set_provided(ab, HostId(0));
        d.admit_query(QueryId(1), ab);
        // Failing b's *source* (h1) kills the flow and thus the join.
        c.fail_host(HostId(1));
        let audit = d.audit_failures(&c);
        assert_eq!(audit.displaced, vec![QueryId(1)]);
        // The stranded placement at h0 survives the audit (it is not on a
        // failed host) but has underivable inputs; GC reclaims it later.
        assert!(audit.survivor.provided().is_empty());
    }

    #[test]
    fn degraded_link_sheds_flows_deterministically() {
        let mut c = Catalog::uniform(2, HostSpec::new(100.0, 100.0), 50.0, CostModel::default());
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(0), 10.0, 2);
        let mut d = DeploymentState::new();
        d.add_flow(HostId(0), HostId(1), a);
        d.add_flow(HostId(0), HostId(1), b);
        assert!(d.is_valid(&c));
        // Room for exactly one flow: the smallest key (stream a) is shed
        // first, keeping the audit deterministic.
        c.degrade_link(HostId(0), HostId(1), 12.0);
        let audit = d.audit_failures(&c);
        assert_eq!(audit.lost_flows, 1);
        assert!(!audit.survivor.flows().contains(&(HostId(0), HostId(1), a)));
        assert!(audit.survivor.flows().contains(&(HostId(0), HostId(1), b)));
        assert!(audit.survivor.is_valid(&c));
        c.restore_link(HostId(0), HostId(1));
        assert_eq!(d.audit_failures(&c).lost_flows, 0);
    }

    #[test]
    fn unserved_query_reported() {
        let (c, _, _, _, ab) = setup();
        let mut d = DeploymentState::new();
        d.admit_query(QueryId(0), ab);
        let errs = d.validate(&c);
        assert!(errs
            .iter()
            .any(|e| matches!(e, DeployError::QueryUnserved { .. })));
    }
}
