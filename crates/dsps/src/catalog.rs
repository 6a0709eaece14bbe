//! The system catalog: hosts, streams, operators, and base-stream placement.
//!
//! The catalog is the shared vocabulary of the planner and the baselines. It
//! *interns* composite streams and operators by their semantic signature
//! (see [`crate::stream::StreamSignature`]), which is what makes cross-query
//! reuse discoverable: when a new query joins the same base streams as an
//! old one, interning returns the already-registered stream/operator ids and
//! the planner sees the overlap for free (paper §II-C: equivalence discovery
//! "by traversing their query plans").

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::cost::CostModel;
use crate::ids::{HostId, OperatorId, StreamId};
use crate::next_revision;
use crate::operator::OperatorDef;
use crate::stream::{StreamDef, StreamSignature};
use crate::topology::{HostSpec, NetworkTopology};

/// Central registry for one DSPS instance.
#[derive(Debug, Clone)]
pub struct Catalog {
    hosts: Vec<HostSpec>,
    /// Configured (pre-fault) host specs; [`Self::restore_host`] copies
    /// from here.
    nominal_hosts: Vec<HostSpec>,
    /// Hosts currently failed ([`Self::fail_host`]).
    failed: BTreeSet<HostId>,
    topology: NetworkTopology,
    cost: CostModel,
    streams: Vec<StreamDef>,
    by_signature: HashMap<StreamSignature, StreamId>,
    operators: Vec<OperatorDef>,
    /// Join operators by `(sorted inputs, privacy tag)`.
    op_dedup: HashMap<(Vec<StreamId>, u64), OperatorId>,
    /// `S0_h`: base streams available at each host.
    base_at_host: Vec<Vec<StreamId>>,
    /// Source host of each base stream. Ordered because
    /// [`Self::rehome_orphaned_sources`] iterates it to pick migration
    /// targets; `by_signature`/`op_dedup`/`producers` stay hashed — they are
    /// point-lookup only and never iterated.
    base_host: BTreeMap<StreamId, HostId>,
    /// Operators producing each stream (multiple join trees may produce the
    /// same interned stream).
    producers: HashMap<StreamId, Vec<OperatorId>>,
    /// See [`Self::substrate_revision`].
    substrate_revision: u64,
}

impl Catalog {
    /// Creates a catalog with the given hosts, topology and cost model.
    pub fn new(hosts: Vec<HostSpec>, topology: NetworkTopology, cost: CostModel) -> Self {
        assert_eq!(
            hosts.len(),
            topology.num_hosts(),
            "topology size must match host count"
        );
        let n = hosts.len();
        Catalog {
            nominal_hosts: hosts.clone(),
            hosts,
            failed: BTreeSet::new(),
            topology,
            cost,
            streams: Vec::new(),
            by_signature: HashMap::new(),
            operators: Vec::new(),
            op_dedup: HashMap::new(),
            base_at_host: vec![Vec::new(); n],
            base_host: BTreeMap::new(),
            producers: HashMap::new(),
            substrate_revision: next_revision(),
        }
    }

    /// Identifies everything about the *already registered* entities that
    /// can change under a planner: host capacities and the failed set, link
    /// capacities, where base streams enter the system, and stream rates
    /// with the operator costs derived from them. Every mutation of those
    /// draws a fresh, process-unique value; interning composite streams and
    /// operators does not (it adds entities, and never alters one that
    /// exists). Two catalogs of one lineage with the same value therefore
    /// agree on all of it.
    pub fn substrate_revision(&self) -> u64 {
        self.substrate_revision
    }

    /// Convenience constructor: `n` identical hosts, full-mesh links.
    pub fn uniform(n: usize, host: HostSpec, link_capacity: f64, cost: CostModel) -> Self {
        Catalog::new(
            vec![host; n],
            NetworkTopology::full_mesh(n, link_capacity),
            cost,
        )
    }

    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.hosts.len()).map(HostId::from_index)
    }

    pub fn host(&self, h: HostId) -> &HostSpec {
        &self.hosts[h.index()]
    }

    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    // ----- fault model ----------------------------------------------------

    /// Fails host `h`: its effective CPU, bandwidth and memory capacities
    /// drop to zero and every link touching it goes dark
    /// ([`NetworkTopology::fail_host`]). Idempotent; returns whether the
    /// host was up. The configured capacities are kept for
    /// [`Self::restore_host`]. A host the catalog does not have is
    /// rejected (`false`) before anything changes.
    ///
    /// Base streams sourced at a failed host stop being available there —
    /// [`crate::DeploymentState::derive_availability`] skips failed hosts'
    /// base seeds — so every derivation rooted at the host collapses.
    pub fn fail_host(&mut self, h: HostId) -> bool {
        if h.index() >= self.hosts.len() || !self.failed.insert(h) {
            return false;
        }
        self.substrate_revision = next_revision();
        let nominal = &self.nominal_hosts[h.index()];
        self.hosts[h.index()] = HostSpec {
            cpu_capacity: 0.0,
            bandwidth_out: 0.0,
            bandwidth_in: 0.0,
            // Keep an unbounded memory unbounded: the planner only builds
            // memory rows for finitely-provisioned hosts, and a zero cap
            // is indistinguishable from "no row" once CPU is zero anyway.
            memory_capacity: if nominal.memory_capacity.is_finite() {
                0.0
            } else {
                f64::INFINITY
            },
        };
        self.topology.fail_host(h);
        true
    }

    /// Restores host `h` to its configured capacities (and its links to the
    /// nominal topology). Idempotent; returns whether the host was failed.
    pub fn restore_host(&mut self, h: HostId) -> bool {
        if !self.failed.remove(&h) {
            return false;
        }
        self.substrate_revision = next_revision();
        self.hosts[h.index()] = self.nominal_hosts[h.index()].clone();
        self.topology.restore_host(h);
        true
    }

    /// Degrades the directed link `h -> m` to the given effective capacity.
    /// Returns whether the catalog has both hosts; a link to a host it
    /// does not have is rejected (`false`) before anything changes.
    ///
    /// # Panics
    /// As [`NetworkTopology::degrade_link`]: on a self link, or a capacity
    /// that is not `>= 0`.
    pub fn degrade_link(&mut self, h: HostId, m: HostId, capacity: f64) -> bool {
        if !self.has_hosts(h, m) {
            return false;
        }
        self.topology.degrade_link(h, m, capacity);
        self.substrate_revision = next_revision();
        true
    }

    /// Restores the directed link `h -> m` to its configured capacity;
    /// `false`, changing nothing, as [`Self::degrade_link`].
    pub fn restore_link(&mut self, h: HostId, m: HostId) -> bool {
        if !self.has_hosts(h, m) {
            return false;
        }
        self.topology.restore_link(h, m);
        self.substrate_revision = next_revision();
        true
    }

    fn has_hosts(&self, h: HostId, m: HostId) -> bool {
        h.index() < self.hosts.len() && m.index() < self.hosts.len()
    }

    /// Re-homes base stream `s` to ingest host `to`: the external feed
    /// reconnects to a different gateway (e.g. after its original ingest
    /// host failed). Derived streams are unaffected — only where the raw
    /// feed enters the system changes.
    ///
    /// # Panics
    /// Panics if `s` is not a base stream or `to` is out of range.
    pub fn rehome_base_stream(&mut self, s: StreamId, to: HostId) {
        assert!(
            self.streams[s.index()].is_base(),
            "{s} is not a base stream"
        );
        assert!(to.index() < self.hosts.len(), "unknown host {to}");
        let from = self.base_host[&s];
        if from == to {
            return;
        }
        self.substrate_revision = next_revision();
        self.base_at_host[from.index()].retain(|&x| x != s);
        self.base_at_host[to.index()].push(s);
        self.base_host.insert(s, to);
    }

    /// Reconnects every base stream whose ingest host is currently failed
    /// to a surviving host, round-robin across the surviving hosts in
    /// ascending order (deterministic). Returns the moves performed as
    /// `(stream, from, to)`, ascending by stream id; empty when no host
    /// survives (nowhere to reconnect) or nothing is orphaned.
    pub fn rehome_orphaned_sources(&mut self) -> Vec<(StreamId, HostId, HostId)> {
        let survivors: Vec<HostId> = self.hosts().filter(|&h| !self.is_host_failed(h)).collect();
        if survivors.is_empty() {
            return Vec::new();
        }
        let mut orphaned: Vec<(StreamId, HostId)> = self
            .base_host
            .iter()
            .filter(|&(_, &h)| self.failed.contains(&h))
            .map(|(&s, &h)| (s, h))
            .collect();
        orphaned.sort();
        let mut moves = Vec::with_capacity(orphaned.len());
        for (i, (s, from)) in orphaned.into_iter().enumerate() {
            let to = survivors[i % survivors.len()];
            self.rehome_base_stream(s, to);
            moves.push((s, from, to));
        }
        moves
    }

    /// Whether host `h` is currently failed.
    pub fn is_host_failed(&self, h: HostId) -> bool {
        self.failed.contains(&h)
    }

    /// Currently failed hosts, ascending.
    pub fn failed_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.failed.iter().copied()
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    pub fn num_operators(&self) -> usize {
        self.operators.len()
    }

    pub fn stream(&self, s: StreamId) -> &StreamDef {
        &self.streams[s.index()]
    }

    pub fn operator(&self, o: OperatorId) -> &OperatorDef {
        &self.operators[o.index()]
    }

    pub fn streams(&self) -> impl Iterator<Item = &StreamDef> {
        self.streams.iter()
    }

    pub fn operators(&self) -> impl Iterator<Item = &OperatorDef> {
        self.operators.iter()
    }

    /// Base streams available at host `h` (paper `S0_h`).
    pub fn base_streams_at(&self, h: HostId) -> &[StreamId] {
        &self.base_at_host[h.index()]
    }

    /// The source host of a base stream, `None` for composites.
    pub fn source_host(&self, s: StreamId) -> Option<HostId> {
        self.base_host.get(&s).copied()
    }

    /// Whether base stream `s` is locally available at `h`.
    pub fn is_base_at(&self, s: StreamId, h: HostId) -> bool {
        self.base_host.get(&s) == Some(&h)
    }

    /// Operators whose output is `s`.
    pub fn producers_of(&self, s: StreamId) -> &[OperatorId] {
        self.producers.get(&s).map_or(&[], Vec::as_slice)
    }

    /// Looks up a stream by signature without creating it.
    pub fn find_stream(&self, sig: &StreamSignature) -> Option<StreamId> {
        self.by_signature.get(sig).copied()
    }

    /// Registers a base stream injected at `host` with the given average
    /// rate. `source` tags the external source; re-registering the same tag
    /// returns the existing stream.
    ///
    /// # Panics
    /// Panics if re-registered with a different host or rate.
    #[expect(clippy::float_cmp, reason = "a re-registration repeats its rate")]
    pub fn add_base_stream(&mut self, host: HostId, rate: f64, source: u64) -> StreamId {
        assert!(rate > 0.0, "base stream rate must be positive");
        let sig = StreamSignature::Base { source };
        if let Some(&id) = self.by_signature.get(&sig) {
            assert_eq!(self.base_host[&id], host, "source {source} re-homed");
            assert_eq!(
                self.streams[id.index()].rate,
                rate,
                "source {source} rate changed"
            );
            return id;
        }
        self.substrate_revision = next_revision();
        let id = StreamId::from_index(self.streams.len());
        self.streams.push(StreamDef {
            id,
            signature: sig.clone(),
            rate,
        });
        self.by_signature.insert(sig, id);
        self.base_at_host[host.index()].push(id);
        self.base_host.insert(id, host);
        id
    }

    /// The set of base streams underlying `s` (identity for base streams,
    /// the join base-set for joins).
    pub fn base_set(&self, s: StreamId) -> BTreeSet<StreamId> {
        match &self.streams[s.index()].signature {
            StreamSignature::Base { .. } => [s].into_iter().collect(),
            StreamSignature::Join { bases, .. } => bases.clone(),
        }
    }

    /// Interns the join-result stream over a set of base streams, computing
    /// its order-independent rate from the cost model. `tag` is a privacy
    /// tag: streams with different tags never unify. Tag 0 is the shared
    /// space; the reuse-off ablation uses per-query tags.
    ///
    /// # Panics
    /// Panics unless `bases` has at least two distinct *base* streams.
    pub fn intern_join_stream_tagged(&mut self, bases: &BTreeSet<StreamId>, tag: u64) -> StreamId {
        assert!(bases.len() >= 2, "a join needs at least two base streams");
        for &b in bases {
            assert!(
                self.streams[b.index()].is_base(),
                "join base sets contain base streams only"
            );
        }
        let sig = StreamSignature::Join {
            bases: bases.clone(),
            tag,
        };
        if let Some(&id) = self.by_signature.get(&sig) {
            return id;
        }
        let rate = self.cost.join_rate(bases, |b| self.streams[b.index()].rate);
        let id = StreamId::from_index(self.streams.len());
        self.streams.push(StreamDef {
            id,
            signature: sig.clone(),
            rate,
        });
        self.by_signature.insert(sig, id);
        id
    }

    /// Interns the binary join operator combining streams `left` and
    /// `right` (whose base sets must be disjoint); also interns the output
    /// stream. Returns the operator id.
    pub fn intern_join_operator(&mut self, left: StreamId, right: StreamId) -> OperatorId {
        self.intern_join_operator_tagged(left, right, 0)
    }

    /// Like [`Self::intern_join_operator`] with a privacy tag (see
    /// [`Self::intern_join_stream_tagged`]).
    pub fn intern_join_operator_tagged(
        &mut self,
        left: StreamId,
        right: StreamId,
        tag: u64,
    ) -> OperatorId {
        let lb = self.base_set(left);
        let rb = self.base_set(right);
        assert!(
            lb.is_disjoint(&rb),
            "join inputs must cover disjoint base sets ({left} vs {right})"
        );
        let mut inputs = vec![left, right];
        inputs.sort();
        // The tag is part of operator identity, as it is of the output
        // stream's: equal inputs under two tags are two operators.
        let key = (inputs.clone(), tag);
        if let Some(&id) = self.op_dedup.get(&key) {
            return id;
        }
        let union: BTreeSet<StreamId> = lb.union(&rb).copied().collect();
        let output = self.intern_join_stream_tagged(&union, tag);
        let rates = [
            self.streams[left.index()].rate,
            self.streams[right.index()].rate,
        ];
        let cpu = self.cost.join_cpu(&rates);
        let memory = self.cost.join_memory(&rates);
        let id = OperatorId::from_index(self.operators.len());
        self.operators.push(OperatorDef {
            id,
            inputs,
            output,
            cpu_cost: cpu,
            memory_cost: memory,
        });
        self.op_dedup.insert(key, id);
        self.producers.entry(output).or_default().push(id);
        id
    }

    /// Updates a base stream's observed average rate and refreshes every
    /// derived stream rate and operator CPU cost (paper §IV-B: adaptive
    /// re-planning reacts to rate drift).
    ///
    /// # Panics
    /// Panics if `s` is not a base stream or the rate is not finite and
    /// positive (NaN and +∞ included).
    pub fn update_base_rate(&mut self, s: StreamId, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be finite and positive"
        );
        assert!(
            self.streams[s.index()].is_base(),
            "{s} is not a base stream"
        );
        self.streams[s.index()].rate = rate;
        self.refresh_derived();
    }

    /// Recomputes composite stream rates and operator CPU costs bottom-up.
    /// Streams are interned inputs-before-outputs, so a single pass in id
    /// order is a valid topological sweep.
    pub fn refresh_derived(&mut self) {
        self.substrate_revision = next_revision();
        for i in 0..self.streams.len() {
            if let StreamSignature::Join { bases, .. } = &self.streams[i].signature {
                self.streams[i].rate = self.cost.join_rate(bases, |b| self.streams[b.index()].rate);
            }
        }
        for i in 0..self.operators.len() {
            let rates: Vec<f64> = self.operators[i]
                .inputs
                .iter()
                .map(|&s| self.streams[s.index()].rate)
                .collect();
            self.operators[i].cpu_cost = self.cost.join_cpu(&rates);
            self.operators[i].memory_cost = self.cost.join_memory(&rates);
        }
    }

    /// Total CPU capacity across hosts (for the optimistic bound and the
    /// paper's weight normalisations).
    pub fn total_cpu(&self) -> f64 {
        self.hosts.iter().map(|h| h.cpu_capacity).sum()
    }

    /// Total outgoing bandwidth across hosts (`Σ β_h`, used for λ2).
    pub fn total_bandwidth_out(&self) -> f64 {
        self.hosts.iter().map(|h| h.bandwidth_out).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog2() -> Catalog {
        Catalog::uniform(2, HostSpec::new(10.0, 100.0), 1000.0, CostModel::default())
    }

    #[test]
    fn failing_an_unknown_host_changes_nothing() {
        let mut c = Catalog::uniform(3, HostSpec::new(10.0, 100.0), 1000.0, CostModel::default());
        let revision = c.substrate_revision();
        assert!(!c.fail_host(HostId(7)));
        assert_eq!(c.failed_hosts().count(), 0);
        assert_eq!(c.substrate_revision(), revision);
        assert!(c.fail_host(HostId(2)), "a known host still fails");
    }

    /// A link to a host the catalog does not have is rejected before
    /// anything changes: unchecked, `0 -> 3` on three hosts is the flat
    /// index of the link `1 -> 0`.
    #[test]
    fn a_link_to_an_unknown_host_changes_nothing() {
        let mut c = Catalog::uniform(3, HostSpec::new(10.0, 100.0), 1000.0, CostModel::default());
        let links = |c: &Catalog| {
            let t = c.topology();
            let hosts = || (0..3).map(HostId);
            hosts()
                .flat_map(|h| hosts().map(move |m| t.link(h, m)))
                .collect::<Vec<_>>()
        };
        let (before, revision) = (links(&c), c.substrate_revision());
        assert!(!c.degrade_link(HostId(0), HostId(3), 1.0));
        assert!(!c.degrade_link(HostId(3), HostId(0), 1.0));
        assert!(!c.restore_link(HostId(0), HostId(3)));
        assert!(!c.restore_link(HostId(7), HostId(1)));
        assert_eq!(links(&c), before);
        assert_eq!(c.substrate_revision(), revision);
        assert!(
            c.degrade_link(HostId(1), HostId(0), 1.0),
            "a known link still degrades"
        );
        assert_eq!(c.topology().link(HostId(1), HostId(0)), 1.0);
        assert!(c.restore_link(HostId(1), HostId(0)));
        assert_eq!(links(&c), before);
    }

    #[test]
    fn base_streams_register_and_dedup() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let a2 = c.add_base_stream(HostId(0), 10.0, 1);
        assert_eq!(a, a2);
        assert_eq!(c.num_streams(), 1);
        assert_eq!(c.base_streams_at(HostId(0)), &[a]);
        assert!(c.base_streams_at(HostId(1)).is_empty());
        assert_eq!(c.source_host(a), Some(HostId(0)));
    }

    #[test]
    fn join_operators_share_interned_output() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(0), 10.0, 2);
        let d = c.add_base_stream(HostId(1), 10.0, 3);
        // (a ⋈ b) ⋈ d  vs  (a ⋈ d) ⋈ b: final outputs must coincide.
        let ab = c.intern_join_operator(a, b);
        let ab_s = c.operator(ab).output;
        let abd1 = c.intern_join_operator(ab_s, d);
        let ad = c.intern_join_operator(a, d);
        let ad_s = c.operator(ad).output;
        let abd2 = c.intern_join_operator(ad_s, b);
        assert_ne!(abd1, abd2, "different trees are different operators");
        assert_eq!(
            c.operator(abd1).output,
            c.operator(abd2).output,
            "same base set -> same interned stream"
        );
        let out = c.operator(abd1).output;
        assert_eq!(c.producers_of(out).len(), 2);
    }

    #[test]
    fn join_rate_matches_cost_model() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(1), 20.0, 2);
        let op = c.intern_join_operator(a, b);
        let out = c.operator(op).output;
        let expected = 10.0 * 20.0 * c.cost_model().default_selectivity;
        assert!((c.stream(out).rate - expected).abs() < 1e-12);
        // CPU linear in input rates.
        assert!((c.operator(op).cpu_cost - 30.0).abs() < 1e-12);
    }

    #[test]
    fn join_operator_dedup() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(1), 20.0, 2);
        let o1 = c.intern_join_operator(a, b);
        let o2 = c.intern_join_operator(b, a); // commuted
        assert_eq!(o1, o2);
        assert_eq!(c.num_operators(), 1);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_join_inputs_rejected() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(1), 20.0, 2);
        let ab = c.intern_join_operator(a, b);
        let ab_s = c.operator(ab).output;
        c.intern_join_operator(ab_s, a); // `a` already inside ab
    }

    #[test]
    fn private_tags_never_share_an_operator() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(1), 20.0, 2);
        // Tags 10^6 apart (queries 0 and 1 000 000 under `reuse = false`)
        // and one past `u32::MAX` must each get their own operator.
        let tags = [1, 1_000_001, 1 << 32, (1 << 32) + 1];
        let ops: Vec<OperatorId> = tags
            .iter()
            .map(|&t| c.intern_join_operator_tagged(a, b, t))
            .collect();
        for (i, (&t, &o)) in tags.iter().zip(&ops).enumerate() {
            let own = c.find_stream(&StreamSignature::Join {
                bases: [a, b].into_iter().collect(),
                tag: t,
            });
            assert_eq!(Some(c.operator(o).output), own, "tag {t}");
            assert!(!ops[..i].contains(&o), "tag {t} reused an operator");
        }
        assert_eq!(c.intern_join_operator_tagged(b, a, 1_000_001), ops[1]);
    }

    #[test]
    fn rate_update_propagates_to_derived() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(1), 20.0, 2);
        let op = c.intern_join_operator(a, b);
        let out = c.operator(op).output;
        let sel = c.cost_model().default_selectivity;
        c.update_base_rate(a, 30.0);
        assert!((c.stream(out).rate - 30.0 * 20.0 * sel).abs() < 1e-9);
        assert!((c.operator(op).cpu_cost - 50.0).abs() < 1e-9);
        assert!((c.operator(op).memory_cost - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_infinite_rate_update() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        c.update_base_rate(a, f64::INFINITY);
    }

    #[test]
    fn rehoming_moves_the_ingest_point() {
        let mut c = catalog2();
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        c.rehome_base_stream(a, HostId(1));
        assert_eq!(c.source_host(a), Some(HostId(1)));
        assert!(c.base_streams_at(HostId(0)).is_empty());
        assert_eq!(c.base_streams_at(HostId(1)), &[a]);
        assert!(c.is_base_at(a, HostId(1)));
        assert!(!c.is_base_at(a, HostId(0)));
    }

    #[test]
    fn orphaned_sources_reconnect_round_robin_to_survivors() {
        let mut c = Catalog::uniform(4, HostSpec::new(10.0, 100.0), 1000.0, CostModel::default());
        let a = c.add_base_stream(HostId(0), 10.0, 1);
        let b = c.add_base_stream(HostId(0), 10.0, 2);
        let d = c.add_base_stream(HostId(1), 10.0, 3);
        c.fail_host(HostId(0));
        let moves = c.rehome_orphaned_sources();
        // a -> survivor 1, b -> survivor 2 (round-robin over {1, 2, 3}).
        assert_eq!(
            moves,
            vec![(a, HostId(0), HostId(1)), (b, HostId(0), HostId(2)),]
        );
        assert_eq!(c.source_host(d), Some(HostId(1)));
        assert!(c.base_streams_at(HostId(0)).is_empty());
        // Idempotent: nothing left to move.
        assert!(c.rehome_orphaned_sources().is_empty());
        // All hosts down: nowhere to reconnect.
        for h in 1..4 {
            c.fail_host(HostId(h));
        }
        assert!(c.rehome_orphaned_sources().is_empty());
    }

    #[test]
    fn totals() {
        let c = catalog2();
        assert_eq!(c.total_cpu(), 20.0);
        assert_eq!(c.total_bandwidth_out(), 200.0);
    }
}
