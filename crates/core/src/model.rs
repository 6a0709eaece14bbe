//! The SQPR optimisation model (paper §III), reduced per §IV-A.
//!
//! Builds one MILP per planning round over the *free* plan space `S(q)`,
//! `O(q)` of the arriving query (or batch). Decision variables outside the
//! free space stay at their current deployment values and enter the model
//! only as residual-capacity constants — exactly the paper's variable
//! fixing. Constraint groups:
//!
//! | paper | here |
//! |---|---|
//! | III.4a demand        | `d_hs ≤ y_hs` |
//! | III.4b / IV.9        | `Σ_h d_hs ≤ 1` (new) / `= 1` (admitted) |
//! | III.5a availability  | `y_ms ≤ Σ_h x_hms + Σ_o z_mo + 1[s ∈ S0_m]` |
//! | III.5b operator      | `z_ho ≤ y_hs` for each input `s ∈ S_o` |
//! | III.5c flow          | `x_hms ≤ y_hs` |
//! | III.6a link          | `Σ_s ̺_s x_hms ≤ κ_hm − fixed` |
//! | III.6b in-bandwidth  | `Σ_{h,s} ̺_s x_hms ≤ β_m − fixed` |
//! | III.6c out-bandwidth | `Σ_{m,s} ̺_s x_hms + Σ_s ̺_s d_hs ≤ β_h − fixed` |
//! | III.6d CPU           | `Σ_o γ_o z_ho ≤ ζ_h − fixed` |
//! | III.7 acyclicity     | `p_ms − p_hs + M x_hms ≤ M − 1`, `M = H + 2` |
//! | O4 linearisation     | `t ≥ fixed_cpu_h + Σ_o γ_o z_ho` |
//!
//! Additionally, *fixed consumers* — operators of unrelated queries that
//! stay in place but consume a stream in the free space — pin `y_hs = 1` so
//! a re-plan cannot starve them.
//!
//! ## Incremental skeleton (warm-started re-planning)
//!
//! A `PlanningModel` can also act as a persistent *skeleton* across
//! submissions: [`PlanningModel::extend`] appends the columns and rows for
//! newly registered streams/operators instead of re-enumerating the whole
//! space, and [`PlanningModel::apply_reduction`] re-applies the §IV-A
//! variable fixing for the *current* submission by bound-fixing every
//! variable outside its plan space at the deployed value. Because the
//! skeleton only ever appends columns and rows, the LP basis of the
//! previous submission remains a valid warm-start hint
//! ([`sqpr_lp::BasisState`]) for the next one. Internally `build` is
//! exactly "empty shell + one `extend`", so both construction paths
//! generate identical structures.

use std::collections::{BTreeMap, BTreeSet};

use sqpr_milp::{ConsId, Model, Sense, VarId};

use sqpr_dsps::{Catalog, DeploymentState, HostId, OperatorId, StreamId};

use crate::config::{AcyclicityMode, ObjectiveWeights, RelayPolicy};
use crate::query::PlanSpace;

/// A lazy availability cut: inside a "dead" host set (one that derived no
/// real source of `stream` in a candidate solution), availability must be
/// powered from outside the set. Valid for every causal allocation and
/// violated by the offending cycle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AvailabilityCut {
    pub stream: StreamId,
    pub dead_set: BTreeSet<HostId>,
}

/// Availability cuts in insertion order — the order their rows were laid
/// out in — with an ordered index for membership and position lookups.
#[derive(Debug, Clone, Default)]
struct CutRegistry {
    order: Vec<AvailabilityCut>,
    index: BTreeMap<AvailabilityCut, usize>,
}

impl CutRegistry {
    /// Appends `cut` unless it is registered already.
    fn insert(&mut self, cut: AvailabilityCut) {
        if !self.index.contains_key(&cut) {
            self.index.insert(cut.clone(), self.order.len());
            self.order.push(cut);
        }
    }

    fn contains(&self, cut: &AvailabilityCut) -> bool {
        self.index.contains_key(cut)
    }

    fn position(&self, cut: &AvailabilityCut) -> Option<usize> {
        self.index.get(cut).copied()
    }

    fn as_slice(&self) -> &[AvailabilityCut] {
        &self.order
    }
}

/// Inputs to one planning-model build.
pub struct ModelInputs<'a> {
    pub catalog: &'a Catalog,
    pub state: &'a DeploymentState,
    /// Free plan space (the reduction's S(q), O(q)).
    pub space: &'a PlanSpace,
    /// Newly demanded streams (one per query in the batch).
    pub new_streams: &'a [StreamId],
    pub weights: ObjectiveWeights,
    pub relay_policy: RelayPolicy,
    pub acyclicity: AcyclicityMode,
    /// IV.9 flexibility: when false, variables currently 1 are frozen.
    pub replan: bool,
    /// Lazy availability cuts accumulated by previous solve rounds.
    pub cuts: &'a [AvailabilityCut],
}

/// Lifecycle of one demanded stream's `Σ_h d_hs` row across submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DemandKind {
    /// Admitted: IV.9 equality (`= 1`).
    Eq,
    /// Demanded by the current submission: `<= 1`.
    Le,
    /// Demanded by a past submission and rejected: `d` fixed to 0 so stale
    /// λ1 rewards cannot distort later solves.
    Disabled,
}

/// What the skeleton's state-dependent bounds, right-hand sides and
/// fold-exempt flags were last derived from (see the module docs), one
/// record per layer function. Each function trusts only its own record and
/// runs its full pass without one.
///
/// `Clone` yields an empty memo: a copy keeps the bounds it was copied
/// with, but nothing vouches for how it is used from there — the admission
/// queue parks clones for rounds that resume against a later deployment.
#[derive(Default)]
struct Memo {
    extended: Option<Extended>,
    reduction: Option<Reduction>,
    exempt: Option<Exempt>,
    /// The [`Model`]'s stamps and row count as the last layer function
    /// left them. `milp` is a public field: if anything else wrote to the
    /// model since, the records above describe a model that is gone.
    seal: Option<(u64, u64, usize)>,
}

impl Clone for Memo {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

/// Inputs of the last [`PlanningModel::extend`].
struct Extended {
    substrate: u64,
    state: u64,
    new_streams: Vec<StreamId>,
}

/// Inputs of the last [`PlanningModel::apply_reduction`], and what has
/// happened to its output since.
struct Reduction {
    substrate: u64,
    /// The deployment the outside-space columns are fixed at; kept whole
    /// because the next reduction needs to know what changed.
    state: DeploymentState,
    /// Its availability fixpoint (what `y` columns are fixed at).
    derived: BTreeSet<(HostId, StreamId)>,
    /// The free space.
    streams: BTreeSet<StreamId>,
    ops: BTreeSet<OperatorId>,
    /// Entities whose bounds `extend` has written since: new columns,
    /// moved fixed-consumer pins, demand-kind transitions.
    stale_streams: BTreeSet<StreamId>,
    stale_ops: BTreeSet<OperatorId>,
    /// What every solution within these bounds decodes to outside the free
    /// space: `state`'s entities the skeleton does not represent, plus the
    /// represented ones whose column is fixed at one.
    outside: DecodedAllocation,
}

/// The fold-exempt entities as of the last
/// [`PlanningModel::set_fold_exemptions`].
struct Exempt {
    streams: BTreeSet<StreamId>,
    ops: BTreeSet<OperatorId>,
}

/// How a layer function ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Pass {
    /// Over every column of the skeleton.
    #[default]
    Full,
    /// Over the entities whose outcome could differ.
    Delta,
    /// Inputs exactly as last time: nothing but new cuts.
    Unchanged,
}

/// How the latest call of each layer function ran, for the tests that pin
/// the memo's invalidation rules and the reduction's scaling.
#[cfg_attr(not(test), allow(dead_code, reason = "only tests read the log"))]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassLog {
    pub(crate) extend: Pass,
    pub(crate) reduction: Pass,
    pub(crate) exempt: Pass,
    /// Variables whose bounds the latest `apply_reduction` wrote.
    pub(crate) reduction_writes: usize,
}

/// A built planning model plus the variable maps needed to decode results.
///
/// Every map here is a `BTreeMap` on purpose: model construction and
/// decoding iterate these maps (acausal-cut discovery, warm-start
/// objective accumulation, link-residual sweeps), and hash-ordered
/// iteration made row layout and float summation order vary run to run.
/// Ordered maps pin both, so identical inputs build byte-identical
/// models — the invariant the byte-identical scenario goldens and the
/// suspend/resume bit-identity tests rely on.
///
/// `Clone` exists for the admission queue: a deadline-preempted round
/// parks its suspended [`sqpr_milp::SearchState`] *together with* a clone
/// of the model it was built from, because the search's `x` vector indexes
/// this model's variables — the planner's live skeleton may have been
/// extended by other submissions by the time the search resumes.
#[derive(Clone)]
pub struct PlanningModel {
    pub milp: Model,
    d: BTreeMap<(HostId, StreamId), VarId>,
    x: BTreeMap<(HostId, HostId, StreamId), VarId>,
    y: BTreeMap<(HostId, StreamId), VarId>,
    z: BTreeMap<(HostId, OperatorId), VarId>,
    p: BTreeMap<(HostId, StreamId), VarId>,
    free_streams: BTreeSet<StreamId>,
    free_ops: BTreeSet<OperatorId>,
    t: Option<VarId>,
    fixed_cpu: Vec<f64>,
    gamma: BTreeMap<OperatorId, f64>,
    big_m: f64,
    n_hosts: usize,
    // --- incremental bookkeeping ---
    hosts: Vec<HostId>,
    weights: ObjectiveWeights,
    relay_policy: RelayPolicy,
    acyclicity: AcyclicityMode,
    avail_rows: BTreeMap<(HostId, StreamId), ConsId>,
    /// `ProducersOnly` relay rows keyed by `(sender, receiver, stream)`:
    /// later-added producers of `stream` append their `-z` terms here, so
    /// the ablation extends incrementally like everything else.
    relay_rows: BTreeMap<(HostId, HostId, StreamId), ConsId>,
    demand_rows: BTreeMap<StreamId, ConsId>,
    demand_kind: BTreeMap<StreamId, DemandKind>,
    link_rows: BTreeMap<(HostId, HostId), ConsId>,
    in_rows: Vec<Option<ConsId>>,
    out_rows: Vec<Option<ConsId>>,
    cpu_rows: Vec<ConsId>,
    mem_rows: Vec<Option<ConsId>>,
    t_rows: Vec<ConsId>,
    cuts: CutRegistry,
    /// Rows of each registered cut, parallel to `cuts`.
    cut_rows: Vec<Vec<ConsId>>,
    pinned: BTreeSet<(HostId, StreamId)>,
    fixed_producer: BTreeSet<(HostId, StreamId)>,
    memo: Memo,
    pub(crate) passes: PassLog,
}

impl PlanningModel {
    fn milp_stamps(&self) -> (u64, u64, usize) {
        (
            self.milp.structure_version(),
            self.milp.bounds_stamp(),
            self.milp.num_cons(),
        )
    }

    /// Entry of a layer function: forgets the memo unless the model is as
    /// the previous one left it.
    fn open_memo(&mut self) {
        if self.memo.seal != Some(self.milp_stamps()) {
            self.memo = Memo::default();
        }
    }

    /// Exit of a layer function: the memo describes the model as it is now.
    fn seal_memo(&mut self) {
        self.memo.seal = Some(self.milp_stamps());
    }

    /// Builds the reduced MILP: an empty shell (capacity rows, O4
    /// variable) plus one [`Self::extend`] over the whole input space.
    pub fn build(inp: &ModelInputs<'_>) -> Self {
        let catalog = inp.catalog;
        let n = catalog.num_hosts();
        let big_m = n as f64 + 2.0; // any value > |H| + 1 (paper III.7)
        let hosts: Vec<HostId> = catalog.hosts().collect();
        let w = inp.weights;

        let mut milp = Model::new(Sense::Maximize);
        let t = if w.lambda4 != 0.0 {
            Some(milp.add_continuous(0.0, f64::INFINITY, -w.lambda4))
        } else {
            None
        };

        // Shared capacity rows are created once, empty; extensions append
        // the terms of every column that lands in them. Bounds are
        // refreshed from the residuals on every extension.
        let mut link_rows = BTreeMap::new();
        for &h in &hosts {
            for &m in &hosts {
                if h != m && catalog.topology().link(h, m).is_finite() {
                    link_rows.insert((h, m), milp.add_le(Vec::new(), f64::INFINITY));
                }
            }
        }
        let in_rows: Vec<Option<ConsId>> = hosts
            .iter()
            .map(|&m| {
                catalog
                    .host(m)
                    .bandwidth_in
                    .is_finite()
                    .then(|| milp.add_le(Vec::new(), f64::INFINITY))
            })
            .collect();
        let out_rows: Vec<Option<ConsId>> = hosts
            .iter()
            .map(|&h| {
                catalog
                    .host(h)
                    .bandwidth_out
                    .is_finite()
                    .then(|| milp.add_le(Vec::new(), f64::INFINITY))
            })
            .collect();
        let cpu_rows: Vec<ConsId> = hosts
            .iter()
            .map(|_| milp.add_le(Vec::new(), f64::INFINITY))
            .collect();
        let mem_rows: Vec<Option<ConsId>> = hosts
            .iter()
            .map(|&h| {
                catalog
                    .host(h)
                    .memory_capacity
                    .is_finite()
                    .then(|| milp.add_le(Vec::new(), f64::INFINITY))
            })
            .collect();
        let t_rows: Vec<ConsId> = match t {
            Some(t) => hosts
                .iter()
                .map(|_| milp.add_ge(vec![(t, 1.0)], 0.0))
                .collect(),
            None => Vec::new(),
        };

        let mut model = PlanningModel {
            milp,
            d: BTreeMap::new(),
            x: BTreeMap::new(),
            y: BTreeMap::new(),
            z: BTreeMap::new(),
            p: BTreeMap::new(),
            free_streams: BTreeSet::new(),
            free_ops: BTreeSet::new(),
            t,
            fixed_cpu: vec![0.0; n],
            gamma: BTreeMap::new(),
            big_m,
            n_hosts: n,
            hosts,
            weights: w,
            relay_policy: inp.relay_policy,
            acyclicity: inp.acyclicity,
            avail_rows: BTreeMap::new(),
            relay_rows: BTreeMap::new(),
            demand_rows: BTreeMap::new(),
            demand_kind: BTreeMap::new(),
            link_rows,
            in_rows,
            out_rows,
            cpu_rows,
            mem_rows,
            t_rows,
            cuts: CutRegistry::default(),
            cut_rows: Vec::new(),
            pinned: BTreeSet::new(),
            fixed_producer: BTreeSet::new(),
            memo: Memo::default(),
            passes: PassLog::default(),
        };
        model.extend(inp);
        model
    }

    /// Extends the skeleton to cover `inp.space`, appending columns and
    /// rows for streams/operators not yet represented, updating the demand
    /// rows to the current admitted/new sets, adding availability cuts not
    /// yet applied, and refreshing the residual capacities, availability
    /// right-hand sides and fixed-consumer pins against `inp.state`.
    ///
    /// Appended columns never disturb existing ones, so an
    /// [`sqpr_lp::BasisState`] captured before the extension remains a
    /// valid warm-start hint afterwards.
    ///
    /// `RelayPolicy::ProducersOnly` extends incrementally too: relay rows
    /// are registered in a keyed registry (`(sender, receiver,
    /// stream)`), producers added later append their `-z` terms to the
    /// rows of their output stream, and the right-hand sides (base
    /// placement plus fixed-producer grants) are refreshed from the state
    /// on every extension like the availability rows.
    ///
    /// Called again with the space already covered and the same
    /// deployment, catalog substrate and demanded streams — the later cut
    /// rounds of a submission — only the new cuts are added. The `d`
    /// columns of a demand row are re-bounded when the row changes kind
    /// (admitted / demanded now / rejected), not on every call;
    /// [`Self::apply_reduction`] owns them otherwise.
    pub fn extend(&mut self, inp: &ModelInputs<'_>) {
        let catalog = inp.catalog;
        let w = self.weights;
        debug_assert_eq!(self.n_hosts, catalog.num_hosts());
        debug_assert_eq!(self.relay_policy, inp.relay_policy);
        debug_assert_eq!(self.acyclicity, inp.acyclicity);

        let mut added_streams: Vec<StreamId> = inp
            .space
            .streams
            .iter()
            .copied()
            .filter(|s| !self.free_streams.contains(s))
            .collect();
        added_streams.sort();
        added_streams.dedup();
        let mut added_ops: Vec<OperatorId> = inp
            .space
            .operators
            .iter()
            .copied()
            .filter(|o| !self.free_ops.contains(o))
            .collect();
        added_ops.sort();
        added_ops.dedup();

        // A catalog whose substrate moved, or frozen re-planning (which
        // writes bounds from the state that nothing here tracks), voids
        // everything remembered.
        self.open_memo();
        let substrate = catalog.substrate_revision();
        let known = self
            .memo
            .extended
            .take()
            .filter(|e| inp.replan && e.substrate == substrate);
        if known.is_none() {
            self.memo = Memo::default();
        }
        #[cfg(debug_assertions)]
        let reference = known.is_some().then(|| self.clone());

        let grew = !added_streams.is_empty() || !added_ops.is_empty();
        let unchanged = !grew
            && known.as_ref().is_some_and(|e| {
                e.state == inp.state.revision() && e.new_streams == inp.new_streams
            });
        if unchanged {
            for cut in inp.cuts {
                self.add_cut(cut, catalog);
            }
            self.memo.extended = known;
            self.seal_memo();
            self.passes.extend = Pass::Unchanged;
            #[cfg(debug_assertions)]
            self.verify_against(reference, "extend", |full| full.extend(inp));
            return;
        }

        let hosts = self.hosts.clone();
        let with_potentials = self.acyclicity == AcyclicityMode::Constraints;

        // ---- columns ----
        for &s in &added_streams {
            for &h in &hosts {
                let yv = self.milp.add_binary(0.0);
                self.y.insert((h, s), yv);
                if with_potentials {
                    let pv = self.milp.add_continuous(0.0, self.big_m, 0.0);
                    self.p.insert((h, s), pv);
                }
            }
            let rate = catalog.stream(s).rate;
            for &h in &hosts {
                for &m in &hosts {
                    if h != m {
                        let xv = self.milp.add_binary(-w.lambda2 * rate);
                        self.x.insert((h, m, s), xv);
                    }
                }
            }
        }
        for &o in &added_ops {
            let gamma = catalog.operator(o).cpu_cost;
            for &h in &hosts {
                let zv = self.milp.add_binary(-w.lambda3 * gamma);
                self.z.insert((h, o), zv);
            }
            self.gamma.insert(o, gamma);
        }
        self.free_streams.extend(added_streams.iter().copied());
        self.free_ops.extend(added_ops.iter().copied());

        // Streams whose columns this call re-bounds behind the reduction's
        // back (new columns aside): demand-kind transitions, moved pins.
        let mut rebounded: Vec<StreamId> = Vec::new();
        // Streams that gain their `d` columns in this call.
        let mut newly_demanded: Vec<StreamId> = Vec::new();

        // ---- demand lifecycle ----
        let admitted: BTreeSet<StreamId> = inp.state.admitted().values().copied().collect();
        let wanted_eq: Vec<StreamId> = admitted
            .iter()
            .copied()
            .filter(|s| self.free_streams.contains(s))
            .collect();
        let mut wanted_new: Vec<StreamId> = inp
            .new_streams
            .iter()
            .copied()
            .filter(|s| !admitted.contains(s))
            .collect();
        wanted_new.sort();
        wanted_new.dedup();
        let existing: Vec<StreamId> = self.demand_rows.keys().copied().collect();
        for s in existing {
            let kind = if admitted.contains(&s) {
                DemandKind::Eq
            } else if wanted_new.binary_search(&s).is_ok() {
                DemandKind::Le
            } else {
                DemandKind::Disabled
            };
            if self.set_demand_kind(s, kind) {
                rebounded.push(s);
            }
        }
        for &s in wanted_eq.iter().chain(wanted_new.iter()) {
            if self.demand_rows.contains_key(&s) {
                continue;
            }
            assert!(
                self.free_streams.contains(&s),
                "demanded stream {s} outside the free space"
            );
            let rate = catalog.stream(s).rate;
            let mut row_terms = Vec::with_capacity(hosts.len());
            for &h in &hosts {
                let dv = self.milp.add_binary(w.lambda1);
                self.d.insert((h, s), dv);
                // III.4a: d_hs <= y_hs.
                self.milp
                    .add_le(vec![(dv, 1.0), (self.y[&(h, s)], -1.0)], 0.0);
                // Client delivery counts against out-bandwidth (III.6c).
                if let Some(row) = self.out_rows[h.index()] {
                    self.milp.add_terms(row, [(dv, rate)]);
                }
                row_terms.push((dv, 1.0));
            }
            let row = self.milp.add_le(row_terms, 1.0);
            self.demand_rows.insert(s, row);
            let kind = if admitted.contains(&s) {
                DemandKind::Eq
            } else {
                DemandKind::Le
            };
            self.set_demand_kind(s, kind);
            newly_demanded.push(s);
        }

        // ---- rows for the added columns ----
        // III.5a availability for every (added stream, host).
        for &s in &added_streams {
            for &m in &hosts {
                let mut terms = vec![(self.y[&(m, s)], 1.0)];
                for &h in &hosts {
                    if h != m {
                        terms.push((self.x[&(h, m, s)], -1.0));
                    }
                }
                for &o in catalog.producers_of(s) {
                    if self.free_ops.contains(&o) {
                        terms.push((self.z[&(m, o)], -1.0));
                    }
                }
                let row = self.milp.add_le(terms, 0.0); // rhs refreshed below
                self.avail_rows.insert((m, s), row);
            }
        }
        // Added operators producing *pre-existing* free streams join those
        // streams' availability rows (and any cut rows on that stream),
        // plus — under the `ProducersOnly` ablation — the relay rows of
        // their output stream, which is exactly what used to force the
        // planner's cold fresh-build fallback.
        for &o in &added_ops {
            let out = catalog.operator(o).output;
            if added_streams.binary_search(&out).is_err() {
                for &m in &hosts {
                    if let Some(&row) = self.avail_rows.get(&(m, out)) {
                        self.milp.add_terms(row, [(self.z[&(m, o)], -1.0)]);
                    }
                }
                if self.relay_policy == RelayPolicy::ProducersOnly {
                    for &h in &hosts {
                        let zv = self.z[&(h, o)];
                        for &m in &hosts {
                            if let Some(&row) = self.relay_rows.get(&(h, m, out)) {
                                self.milp.add_terms(row, [(zv, -1.0)]);
                            }
                        }
                    }
                }
            }
            for (cut, rows) in self.cuts.as_slice().iter().zip(&self.cut_rows) {
                if cut.stream == out {
                    let feed: Vec<(VarId, f64)> = cut
                        .dead_set
                        .iter()
                        .map(|&m2| (self.z[&(m2, o)], -1.0))
                        .collect();
                    for &row in rows {
                        self.milp.add_terms(row, feed.iter().copied());
                    }
                }
            }
        }
        // III.5b operator inputs for added operators.
        for &o in &added_ops {
            let op = catalog.operator(o);
            for &s in &op.inputs {
                assert!(
                    self.free_streams.contains(&s),
                    "free operator {o} consumes stream {s} outside the free space"
                );
                for &h in &hosts {
                    self.milp
                        .add_le(vec![(self.z[&(h, o)], 1.0), (self.y[&(h, s)], -1.0)], 0.0);
                }
            }
        }
        // III.5c flows + III.7 acyclicity (+ relay ablation) per added x.
        for &s in &added_streams {
            for &h in &hosts {
                for &m in &hosts {
                    if h == m {
                        continue;
                    }
                    let xv = self.x[&(h, m, s)];
                    self.milp
                        .add_le(vec![(xv, 1.0), (self.y[&(h, s)], -1.0)], 0.0);
                    if with_potentials {
                        self.milp.add_le(
                            vec![
                                (self.p[&(m, s)], 1.0),
                                (self.p[&(h, s)], -1.0),
                                (xv, self.big_m),
                            ],
                            self.big_m - 1.0,
                        );
                    }
                    if self.relay_policy == RelayPolicy::ProducersOnly {
                        // Senders must generate the stream locally
                        // (ablation). Terms cover the *currently* free
                        // producers; later-added producers join below and
                        // the rhs (base/fixed-producer grants) is
                        // refreshed per extension like the availability
                        // rows, so the ablation grows incrementally.
                        let mut terms = vec![(xv, 1.0)];
                        for &o in catalog.producers_of(s) {
                            if self.free_ops.contains(&o) {
                                terms.push((self.z[&(h, o)], -1.0));
                            }
                        }
                        let row = self.milp.add_le(terms, f64::INFINITY);
                        self.relay_rows.insert((h, m, s), row);
                    }
                }
            }
        }
        // Capacity terms of the added flow columns (III.6a/b/c).
        for &s in &added_streams {
            let rate = catalog.stream(s).rate;
            for &h in &hosts {
                for &m in &hosts {
                    if h == m {
                        continue;
                    }
                    let xv = self.x[&(h, m, s)];
                    if let Some(&row) = self.link_rows.get(&(h, m)) {
                        self.milp.add_terms(row, [(xv, rate)]);
                    }
                    if let Some(row) = self.in_rows[m.index()] {
                        self.milp.add_terms(row, [(xv, rate)]);
                    }
                    if let Some(row) = self.out_rows[h.index()] {
                        self.milp.add_terms(row, [(xv, rate)]);
                    }
                }
            }
        }
        // CPU / memory / O4 terms of the added operator columns (III.6d).
        for &o in &added_ops {
            let op = catalog.operator(o);
            for &h in &hosts {
                let zv = self.z[&(h, o)];
                self.milp
                    .add_terms(self.cpu_rows[h.index()], [(zv, op.cpu_cost)]);
                if op.memory_cost != 0.0 {
                    if let Some(row) = self.mem_rows[h.index()] {
                        self.milp.add_terms(row, [(zv, op.memory_cost)]);
                    }
                }
                if self.t.is_some() {
                    self.milp
                        .add_terms(self.t_rows[h.index()], [(zv, -op.cpu_cost)]);
                }
            }
        }

        // ---- refresh state-dependent pieces ----
        // The grants behind the availability, relay and cut right-hand
        // sides are the catalog substrate (unchanged if `known`) and the
        // fixed producers: while those stand, only new rows need theirs.
        let old_producers = std::mem::take(&mut self.fixed_producer);
        self.refresh_pins_and_producers(inp.state, catalog, &mut rebounded);
        if known.is_some() && self.fixed_producer == old_producers {
            for &s in &added_streams {
                self.refresh_stream_rhs(s, catalog);
            }
        } else {
            let streams: Vec<StreamId> = self.free_streams.iter().copied().collect();
            for s in streams {
                self.refresh_stream_rhs(s, catalog);
            }
            for i in 0..self.cut_rows.len() {
                let rhs = self.cut_rhs(&self.cuts.as_slice()[i], catalog);
                for &row in &self.cut_rows[i] {
                    self.milp.set_row_bounds(row, -f64::INFINITY, rhs);
                }
            }
        }
        self.refresh_residuals(inp.state, catalog);

        // ---- availability cuts not applied yet ----
        for cut in inp.cuts {
            self.add_cut(cut, catalog);
        }
        self.passes.extend = if known.is_some() {
            Pass::Delta
        } else {
            Pass::Full
        };

        // Freeze current assignments when replanning is disabled
        // (ablation; build path only — the planner never caches skeletons
        // with replan off).
        if !inp.replan {
            for &(h, o) in inp.state.placements() {
                if let Some(&v) = self.z.get(&(h, o)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            for &(h, m, s) in inp.state.flows() {
                if let Some(&v) = self.x.get(&(h, m, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            for (&s, &h) in inp.state.provided() {
                if let Some(&v) = self.d.get(&(h, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            for &(h, s) in inp.state.available() {
                if let Some(&v) = self.y.get(&(h, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            // (`known` is `None`: the memo stays empty.)
            return;
        }

        // ---- what the other two functions need to know ----
        if let Some(r) = &mut self.memo.reduction {
            r.stale_streams.extend(added_streams.iter().copied());
            r.stale_streams.extend(newly_demanded.iter().copied());
            r.stale_streams.extend(rebounded);
            r.stale_ops.extend(added_ops.iter().copied());
        }
        if let Some(e) = &mut self.memo.exempt {
            // New columns start fold-eligible, whatever the last exempt
            // set said about their entity.
            for s in added_streams.iter().chain(&newly_demanded) {
                e.streams.remove(s);
            }
            for o in &added_ops {
                e.ops.remove(o);
            }
        }
        self.memo.extended = Some(Extended {
            substrate,
            state: inp.state.revision(),
            new_streams: inp.new_streams.to_vec(),
        });
        self.seal_memo();
        #[cfg(debug_assertions)]
        self.verify_against(reference, "extend", |full| full.extend(inp));
    }

    /// Re-applies the §IV-A reduction for one submission over a persistent
    /// skeleton: every variable whose stream/operator lies outside `space`
    /// is bound-fixed at its current deployment value; variables inside are
    /// released to their natural bounds (respecting fixed-consumer pins and
    /// the demand lifecycle). The result is algebraically identical to a
    /// fresh reduced model over `space` — same feasible set, same optimal
    /// decisions — while keeping the column layout stable for basis reuse.
    ///
    /// With the previous reduction on record only the entities whose
    /// bounds can differ are re-bounded: the previous and the new free
    /// space, whatever `extend` touched since, and whatever the deployment
    /// changed. Same space, same deployment: nothing to do.
    pub fn apply_reduction(
        &mut self,
        space: &PlanSpace,
        state: &DeploymentState,
        catalog: &Catalog,
    ) {
        let streams: BTreeSet<StreamId> = space.streams.iter().copied().collect();
        let ops: BTreeSet<OperatorId> = space.operators.iter().copied().collect();
        self.open_memo();
        let substrate = catalog.substrate_revision();
        let prior = self
            .memo
            .reduction
            .take()
            .filter(|r| r.substrate == substrate);
        #[cfg(debug_assertions)]
        let reference = prior.is_some().then(|| self.clone());

        // The entities to re-bound, and the record they are re-bounded
        // under.
        let (touched_streams, touched_ops, mut r);
        match prior {
            None => {
                self.passes.reduction = Pass::Full;
                touched_streams = self.free_streams.clone();
                touched_ops = self.free_ops.clone();
                r = Reduction {
                    substrate,
                    state: state.clone(),
                    derived: state.derive_availability(catalog),
                    streams: BTreeSet::new(),
                    ops: BTreeSet::new(),
                    stale_streams: BTreeSet::new(),
                    stale_ops: BTreeSet::new(),
                    outside: DecodedAllocation::default(),
                };
            }
            Some(mut prior) => {
                let same_state = prior.state.revision() == state.revision();
                let mut moved_streams = std::mem::take(&mut prior.stale_streams);
                let mut moved_ops = std::mem::take(&mut prior.stale_ops);
                if !same_state {
                    let derived = state.derive_availability(catalog);
                    let was = &prior.state;
                    moved_streams.extend(
                        prior
                            .derived
                            .symmetric_difference(&derived)
                            .map(|&(_, s)| s),
                    );
                    moved_streams.extend(
                        was.flows()
                            .symmetric_difference(state.flows())
                            .map(|&(_, _, s)| s),
                    );
                    let provided_elsewhere =
                        |(&s, &h): (&StreamId, &HostId), other: &DeploymentState| {
                            (other.provider_of(s) != Some(h)).then_some(s)
                        };
                    moved_streams.extend(
                        was.provided()
                            .iter()
                            .filter_map(|e| provided_elsewhere(e, state)),
                    );
                    moved_streams.extend(
                        state
                            .provided()
                            .iter()
                            .filter_map(|e| provided_elsewhere(e, was)),
                    );
                    moved_ops.extend(
                        was.placements()
                            .symmetric_difference(state.placements())
                            .map(|&(_, o)| o),
                    );
                    prior.derived = derived;
                    prior.state = state.clone();
                }
                let same_space = prior.streams == streams && prior.ops == ops;
                let nothing_moved = moved_streams.is_empty() && moved_ops.is_empty();
                self.passes.reduction = if same_state && same_space && nothing_moved {
                    Pass::Unchanged
                } else {
                    Pass::Delta
                };
                if !same_space {
                    moved_streams.extend(prior.streams.iter().chain(&streams).copied());
                    moved_ops.extend(prior.ops.iter().chain(&ops).copied());
                }
                (touched_streams, touched_ops, r) = (moved_streams, moved_ops, prior);
            }
        }
        let mut writes = 0;
        // (Entities the skeleton does not represent have no columns.)
        for s in touched_streams {
            writes += self.reduce_stream(s, streams.contains(&s), state, &r.derived);
        }
        for o in touched_ops {
            writes += self.reduce_op(o, ops.contains(&o), state);
        }
        if self.passes.reduction != Pass::Unchanged {
            r.streams = streams;
            r.ops = ops;
            r.outside = self.decode_outside(&r);
        }
        self.passes.reduction_writes = writes;
        self.memo.reduction = Some(r);
        self.seal_memo();
        #[cfg(debug_assertions)]
        self.verify_against(reference, "apply_reduction", |full| {
            full.apply_reduction(space, state, catalog)
        });
        // Potentials and the O4 variable stay free: both are auxiliary
        // (zero/objective-only cost) and any causal fixing admits them.
    }

    /// Whether every decision column of `space` — its streams' `y`/`x`/`d`
    /// and its operators' `z` — is currently bound-fixed (`lb == ub`),
    /// i.e. the space lies entirely outside the active reduction. The
    /// auxiliary columns ([`Self::apply_reduction`] never fixes potentials
    /// or the O4 variable) are excluded. This is the safety condition for
    /// keeping the solver context across a query removal: re-fixing a
    /// fixed column at a new value is a bound patch the LP cache absorbs.
    pub fn space_is_bound_fixed(&self, space: &PlanSpace) -> bool {
        #[expect(clippy::float_cmp, reason = "both bounds hold the same value")]
        let fixed = |v: VarId| {
            let (lb, ub) = self.milp.var_bounds(v);
            lb == ub
        };
        space
            .streams
            .iter()
            .all(|&s| self.stream_columns(s).all(fixed))
            && space
                .operators
                .iter()
                .all(|&o| self.op_columns(o).all(fixed))
    }

    /// Marks the decision variables of `spaces` fold-exempt (and everything
    /// else fold-eligible): the compressed-LP cache then keeps those
    /// columns in the LP even while a submission pins them, so a later
    /// submission that re-frees them — re-planning a currently-unserved
    /// query is the planner's case — patches the cached lowering instead
    /// of paying a relayout. Purely a compression hint
    /// ([`sqpr_milp::Model::set_fold_exempt`]): decisions and objectives
    /// are unchanged, the LP just stays a little wider.
    ///
    /// With the previous exempt set on record only the entities that
    /// entered or left it are re-flagged.
    pub fn set_fold_exemptions<'a>(&mut self, spaces: impl IntoIterator<Item = &'a PlanSpace>) {
        let mut streams: BTreeSet<StreamId> = BTreeSet::new();
        let mut ops: BTreeSet<OperatorId> = BTreeSet::new();
        for sp in spaces {
            streams.extend(sp.streams.iter().copied());
            ops.extend(sp.operators.iter().copied());
        }
        self.set_exempt(Exempt { streams, ops });
    }

    /// [`Self::set_fold_exemptions`] for the union of the spaces.
    fn set_exempt(&mut self, exempt: Exempt) {
        self.open_memo();
        #[cfg(debug_assertions)]
        let reference = self.memo.exempt.is_some().then(|| self.clone());
        let (flip_streams, flip_ops): (Vec<StreamId>, Vec<OperatorId>) = match &self.memo.exempt {
            Some(e) => (
                e.streams
                    .symmetric_difference(&exempt.streams)
                    .copied()
                    .collect(),
                e.ops.symmetric_difference(&exempt.ops).copied().collect(),
            ),
            None => (
                self.free_streams.iter().copied().collect(),
                self.free_ops.iter().copied().collect(),
            ),
        };
        self.passes.exempt = if self.memo.exempt.is_none() {
            Pass::Full
        } else if flip_streams.is_empty() && flip_ops.is_empty() {
            Pass::Unchanged
        } else {
            Pass::Delta
        };
        for s in flip_streams {
            let columns: Vec<VarId> = self.stream_columns(s).collect();
            for v in columns {
                self.milp.set_fold_exempt(v, exempt.streams.contains(&s));
            }
        }
        for o in flip_ops {
            let columns: Vec<VarId> = self.op_columns(o).collect();
            for v in columns {
                self.milp.set_fold_exempt(v, exempt.ops.contains(&o));
            }
        }
        #[cfg(debug_assertions)]
        self.verify_against(reference, "set_fold_exemptions", |full| {
            full.set_exempt(Exempt {
                streams: exempt.streams.clone(),
                ops: exempt.ops.clone(),
            })
        });
        self.memo.exempt = Some(exempt);
        self.seal_memo();
    }

    /// The decision columns of stream `s` present in the skeleton: `y` and
    /// `d` per host, `x` per ordered host pair.
    fn stream_columns(&self, s: StreamId) -> impl Iterator<Item = VarId> + '_ {
        self.hosts.iter().flat_map(move |&h| {
            let flows = self
                .hosts
                .iter()
                .filter_map(move |&m| self.x.get(&(h, m, s)));
            [self.y.get(&(h, s)), self.d.get(&(h, s))]
                .into_iter()
                .flatten()
                .chain(flows)
                .copied()
        })
    }

    /// The placement columns of operator `o` present in the skeleton.
    fn op_columns(&self, o: OperatorId) -> impl Iterator<Item = VarId> + '_ {
        self.hosts
            .iter()
            .filter_map(move |&h| self.z.get(&(h, o)).copied())
    }

    /// Applies one demand-row transition (see [`DemandKind`]); returns
    /// whether the row changed kind (a new row always does).
    fn set_demand_kind(&mut self, s: StreamId, kind: DemandKind) -> bool {
        if self.demand_kind.get(&s) == Some(&kind) {
            return false;
        }
        let row = self.demand_rows[&s];
        match kind {
            DemandKind::Eq => self.milp.set_row_bounds(row, 1.0, 1.0),
            DemandKind::Le | DemandKind::Disabled => {
                self.milp.set_row_bounds(row, -f64::INFINITY, 1.0)
            }
        }
        for &h in &self.hosts {
            let v = self.d[&(h, s)];
            match kind {
                DemandKind::Disabled => self.milp.set_bounds(v, 0.0, 0.0),
                DemandKind::Eq | DemandKind::Le => self.milp.set_bounds(v, 0.0, 1.0),
            }
        }
        self.demand_kind.insert(s, kind);
        true
    }

    /// Adds one availability cut's rows (shared feed, one row per member)
    /// unless the cut is registered already or its stream is not in the
    /// skeleton.
    fn add_cut(&mut self, cut: &AvailabilityCut, catalog: &Catalog) {
        if !self.free_streams.contains(&cut.stream) || self.cuts.contains(cut) {
            return;
        }
        self.cuts.insert(cut.clone());
        let s_ = cut.stream;
        let mut feed: Vec<(VarId, f64)> = Vec::new();
        for &m2 in &cut.dead_set {
            for &h in &self.hosts {
                if h != m2 && !cut.dead_set.contains(&h) {
                    feed.push((self.x[&(h, m2, s_)], -1.0));
                }
            }
            for &o in catalog.producers_of(s_) {
                if self.free_ops.contains(&o) {
                    feed.push((self.z[&(m2, o)], -1.0));
                }
            }
        }
        let rhs = self.cut_rhs(cut, catalog);
        let mut rows = Vec::with_capacity(cut.dead_set.len());
        for &m in &cut.dead_set {
            let mut terms = vec![(self.y[&(m, s_)], 1.0)];
            terms.extend(feed.iter().copied());
            rows.push(self.milp.add_le(terms, rhs));
        }
        self.cut_rows.push(rows);
    }

    /// Recomputes the fixed-producer and fixed-consumer (pin) sets from the
    /// current deployment, applying and reverting `y` pins as needed; the
    /// streams whose pins moved are appended to `rebounded`.
    fn refresh_pins_and_producers(
        &mut self,
        state: &DeploymentState,
        catalog: &Catalog,
        rebounded: &mut Vec<StreamId>,
    ) {
        let mut fixed_producer = BTreeSet::new();
        let mut pinned = BTreeSet::new();
        for &(h, o) in state.placements() {
            if self.free_ops.contains(&o) {
                continue;
            }
            let op = catalog.operator(o);
            if self.free_streams.contains(&op.output) {
                fixed_producer.insert((h, op.output));
            }
            for &s in &op.inputs {
                if self.free_streams.contains(&s) {
                    pinned.insert((h, s));
                }
            }
        }
        for &(h, s) in pinned.difference(&self.pinned) {
            self.milp.set_bounds(self.y[&(h, s)], 1.0, 1.0);
            rebounded.push(s);
        }
        for &(h, s) in self.pinned.difference(&pinned) {
            self.milp.set_bounds(self.y[&(h, s)], 0.0, 1.0);
            rebounded.push(s);
        }
        self.pinned = pinned;
        self.fixed_producer = fixed_producer;
    }

    /// What host `m` is granted of stream `s` without a free producer or an
    /// incoming flow: the base placement plus a fixed producer there.
    fn grant(&self, m: HostId, s: StreamId, catalog: &Catalog) -> f64 {
        let mut rhs = 0.0;
        if catalog.is_base_at(s, m) && !catalog.is_host_failed(m) {
            rhs += 1.0;
        }
        if self.fixed_producer.contains(&(m, s)) {
            rhs += 1.0;
        }
        rhs
    }

    /// Refreshes the right-hand sides of stream `s`'s availability rows
    /// and, under the `ProducersOnly` ablation, of its relay rows — the
    /// sender may forward without a free producer on the same grants.
    fn refresh_stream_rhs(&mut self, s: StreamId, catalog: &Catalog) {
        for i in 0..self.hosts.len() {
            let m = self.hosts[i];
            let rhs = self.grant(m, s, catalog);
            if let Some(&row) = self.avail_rows.get(&(m, s)) {
                self.milp.set_row_bounds(row, -f64::INFINITY, rhs);
            }
            if self.relay_policy == RelayPolicy::ProducersOnly {
                for j in 0..self.hosts.len() {
                    if let Some(&row) = self.relay_rows.get(&(m, self.hosts[j], s)) {
                        self.milp.set_row_bounds(row, -f64::INFINITY, rhs);
                    }
                }
            }
        }
    }

    /// A cut's right-hand side: the grants of its dead-set members.
    fn cut_rhs(&self, cut: &AvailabilityCut, catalog: &Catalog) -> f64 {
        let mut rhs = 0.0;
        for &m2 in &cut.dead_set {
            rhs += self.grant(m2, cut.stream, catalog);
        }
        rhs
    }

    /// Recomputes the residual capacities: contributions of allocations
    /// whose streams/operators are *not represented in the skeleton*
    /// (everything represented is either free or bound-fixed and therefore
    /// already counted by its own terms).
    fn refresh_residuals(&mut self, state: &DeploymentState, catalog: &Catalog) {
        let n = self.n_hosts;
        let mut cpu_fixed = vec![0.0; n];
        let mut mem_fixed = vec![0.0; n];
        let mut out_fixed = vec![0.0; n];
        let mut in_fixed = vec![0.0; n];
        let mut link_fixed: BTreeMap<(HostId, HostId), f64> = BTreeMap::new();
        for &(h, o) in state.placements() {
            if !self.free_ops.contains(&o) {
                cpu_fixed[h.index()] += catalog.operator(o).cpu_cost;
                mem_fixed[h.index()] += catalog.operator(o).memory_cost;
            }
        }
        for &(h, m, s) in state.flows() {
            if !self.free_streams.contains(&s) {
                let r = catalog.stream(s).rate;
                out_fixed[h.index()] += r;
                in_fixed[m.index()] += r;
                *link_fixed.entry((h, m)).or_default() += r;
            }
        }
        for (&s, &h) in state.provided() {
            if !self.free_streams.contains(&s) {
                out_fixed[h.index()] += catalog.stream(s).rate;
            }
        }

        for (&(h, m), &row) in &self.link_rows {
            let cap = catalog.topology().link(h, m);
            let residual = cap - link_fixed.get(&(h, m)).copied().unwrap_or(0.0);
            self.milp
                .set_row_bounds(row, -f64::INFINITY, residual.max(0.0));
        }
        for (i, &h) in self.hosts.clone().iter().enumerate() {
            if let Some(row) = self.in_rows[i] {
                let cap = catalog.host(h).bandwidth_in;
                self.milp
                    .set_row_bounds(row, -f64::INFINITY, (cap - in_fixed[i]).max(0.0));
            }
            if let Some(row) = self.out_rows[i] {
                let cap = catalog.host(h).bandwidth_out;
                self.milp
                    .set_row_bounds(row, -f64::INFINITY, (cap - out_fixed[i]).max(0.0));
            }
            let cap = catalog.host(h).cpu_capacity;
            self.milp.set_row_bounds(
                self.cpu_rows[i],
                -f64::INFINITY,
                (cap - cpu_fixed[i]).max(0.0),
            );
            if let Some(row) = self.mem_rows[i] {
                let cap = catalog.host(h).memory_capacity;
                self.milp
                    .set_row_bounds(row, -f64::INFINITY, (cap - mem_fixed[i]).max(0.0));
            }
            if !self.t_rows.is_empty() {
                // O4: t >= cpu_fixed + sum gamma z.
                self.milp
                    .set_row_bounds(self.t_rows[i], cpu_fixed[i], f64::INFINITY);
            }
        }
        self.fixed_cpu = cpu_fixed;
    }

    /// The streams and operators the skeleton has columns for.
    pub(crate) fn free_space(&self) -> (&BTreeSet<StreamId>, &BTreeSet<OperatorId>) {
        (&self.free_streams, &self.free_ops)
    }

    /// The availability cuts whose rows the model carries, in row order.
    pub(crate) fn cuts(&self) -> &[AvailabilityCut] {
        self.cuts.as_slice()
    }

    /// Whether the model carries `cut`'s rows.
    pub(crate) fn has_cut(&self, cut: &AvailabilityCut) -> bool {
        self.cuts.contains(cut)
    }

    pub fn num_vars(&self) -> usize {
        self.milp.num_vars()
    }

    pub fn num_cons(&self) -> usize {
        self.milp.num_cons()
    }

    /// Re-expresses a [`sqpr_milp::ModelBasis`] captured against `old` in
    /// this (compacted/rebuilt) skeleton's coordinates. Variables are
    /// matched through their `(host, stream/operator)` keys; constraints
    /// through the keyed row registries (availability, demand, capacity,
    /// cut rows). Rows without a key (the per-column coupling rows, whose
    /// slacks are rarely basic) are left unmapped and repaired by the usual
    /// slack substitution — a one-time cost per compaction, not a
    /// correctness concern.
    pub fn remap_basis_from(
        &self,
        old: &PlanningModel,
        basis: &sqpr_milp::ModelBasis,
    ) -> sqpr_milp::ModelBasis {
        let mut var_map: Vec<Option<usize>> = vec![None; old.milp.num_vars()];
        for (key, &v) in &old.y {
            if let Some(&nv) = self.y.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.x {
            if let Some(&nv) = self.x.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.z {
            if let Some(&nv) = self.z.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.p {
            if let Some(&nv) = self.p.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.d {
            if let Some(&nv) = self.d.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        if let (Some(ot), Some(nt)) = (old.t, self.t) {
            var_map[ot.index()] = Some(nt.index());
        }

        let mut cons_map: Vec<Option<usize>> = vec![None; old.milp.num_cons()];
        for (key, &c) in &old.avail_rows {
            if let Some(&nc) = self.avail_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        for (key, &c) in &old.demand_rows {
            if let Some(&nc) = self.demand_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        for (key, &c) in &old.relay_rows {
            if let Some(&nc) = self.relay_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        for (key, &c) in &old.link_rows {
            if let Some(&nc) = self.link_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        let per_host = [
            (&old.in_rows, &self.in_rows),
            (&old.out_rows, &self.out_rows),
            (&old.mem_rows, &self.mem_rows),
        ];
        for (old_rows, new_rows) in per_host {
            for (i, slot) in old_rows.iter().enumerate() {
                if let (Some(oc), Some(Some(nc))) = (slot, new_rows.get(i)) {
                    cons_map[oc.index()] = Some(nc.index());
                }
            }
        }
        for (i, oc) in old.cpu_rows.iter().enumerate() {
            if let Some(nc) = self.cpu_rows.get(i) {
                cons_map[oc.index()] = Some(nc.index());
            }
        }
        for (i, oc) in old.t_rows.iter().enumerate() {
            if let Some(nc) = self.t_rows.get(i) {
                cons_map[oc.index()] = Some(nc.index());
            }
        }
        for (cut, old_rows) in old.cuts.as_slice().iter().zip(&old.cut_rows) {
            if let Some(i) = self.cuts.position(cut) {
                for (oc, nc) in old_rows.iter().zip(&self.cut_rows[i]) {
                    cons_map[oc.index()] = Some(nc.index());
                }
            }
        }
        basis.remap(&var_map, &cons_map)
    }

    /// Builds a warm-start vector from the current deployment: free
    /// variables take their current values, the new queries stay
    /// unadmitted, and stream potentials are set to flow-graph heights so
    /// the acyclicity rows hold. Returns `None` if the state claims a flow
    /// cycle (cannot happen for validated states).
    ///
    /// The vector is all zeros except where the deployment says otherwise,
    /// so it is filled from the deployment, not from the skeleton's maps.
    pub fn warm_start(&self, state: &DeploymentState, catalog: &Catalog) -> Option<Vec<f64>> {
        let mut v = vec![0.0; self.milp.num_vars()];
        // Use the *derived* availability fixpoint rather than the state's
        // explicit claims: base streams are implicitly available at their
        // sources, and hand-built states may omit entries that flows or
        // local operators imply.
        let computed;
        let derived = match self.reduced_at(state) {
            Some(r) if r.substrate == catalog.substrate_revision() => &r.derived,
            _ => {
                computed = state.derive_availability(catalog);
                &computed
            }
        };
        for key in derived {
            if let Some(var) = self.y.get(key) {
                v[var.index()] = 1.0;
            }
        }
        for key in state.flows() {
            if let Some(var) = self.x.get(key) {
                v[var.index()] = 1.0;
            }
        }
        for key in state.placements() {
            if let Some(var) = self.z.get(key) {
                v[var.index()] = 1.0;
            }
        }
        for (&s, &h) in state.provided() {
            if self.demand_kind.get(&s) != Some(&DemandKind::Disabled) {
                if let Some(var) = self.d.get(&(h, s)) {
                    v[var.index()] = 1.0;
                }
            }
        }
        // Potentials: longest path along current flow edges per stream
        // (only present in Constraints mode).
        if !self.p.is_empty() {
            for &s in &self.free_streams {
                let heights = self.flow_heights(state, s)?;
                for (h, &var) in self
                    .p
                    .iter()
                    .filter(|((_, ps), _)| *ps == s)
                    .map(|((h, _), var)| (h, var))
                {
                    v[var.index()] = heights[h.index()].min(self.big_m);
                }
            }
        }
        // O4 variable: the minimal feasible value is the maximum per-host
        // CPU under the warm-start placements plus the fixed load.
        if let Some(t_var) = self.t {
            let mut cpu = self.fixed_cpu.clone();
            for &(h, o) in state.placements() {
                if self.z.contains_key(&(h, o)) {
                    cpu[h.index()] += self.gamma[&o];
                }
            }
            v[t_var.index()] = cpu.iter().copied().fold(0.0, f64::max);
        }
        Some(v)
    }

    /// The reduction on record, if the skeleton's columns still hold what
    /// it wrote and it was taken against exactly this deployment.
    fn reduced_at(&self, state: &DeploymentState) -> Option<&Reduction> {
        self.memo.reduction.as_ref().filter(|r| {
            self.memo.seal == Some(self.milp_stamps())
                && r.state.revision() == state.revision()
                && r.stale_streams.is_empty()
                && r.stale_ops.is_empty()
        })
    }

    fn flow_heights(&self, state: &DeploymentState, s: StreamId) -> Option<Vec<f64>> {
        // heights[h] = longest path from h along flow edges of stream s.
        let n = self.n_hosts;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(h, m, fs) in state.flows() {
            if fs == s {
                adj[h.index()].push(m.index());
            }
        }
        let mut memo = vec![-1i64; n];
        let mut visiting = vec![false; n];
        fn dfs(
            u: usize,
            adj: &[Vec<usize>],
            memo: &mut [i64],
            visiting: &mut [bool],
        ) -> Option<i64> {
            if memo[u] >= 0 {
                return Some(memo[u]);
            }
            if visiting[u] {
                return None; // cycle
            }
            visiting[u] = true;
            let mut best = 0i64;
            for &w in &adj[u] {
                best = best.max(dfs(w, adj, memo, visiting)? + 1);
            }
            visiting[u] = false;
            memo[u] = best;
            Some(best)
        }
        let mut out = vec![0.0; n];
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = dfs(u, &adj, &mut memo, &mut visiting)? as f64;
        }
        Some(out)
    }

    /// Extracts availability cuts violated by an acausal candidate: for
    /// each free stream, the set of hosts whose claimed availability is not
    /// derivable (a self-sustaining cycle) becomes one dead-set cut.
    pub fn find_acausal_cuts(
        &self,
        xsol: &[f64],
        prev: &DeploymentState,
        catalog: &Catalog,
    ) -> Vec<AvailabilityCut> {
        let decoded = self.decode(xsol, prev);
        let mut cand = prev.clone();
        decoded.install(&mut cand);
        let derived = cand.derive_availability(catalog);
        let mut dead: BTreeMap<StreamId, BTreeSet<HostId>> = BTreeMap::new();
        for &(h, s) in cand.available() {
            if self.free_streams.contains(&s) && !derived.contains(&(h, s)) {
                dead.entry(s).or_default().insert(h);
            }
        }
        dead.into_iter()
            .map(|(stream, dead_set)| AvailabilityCut { stream, dead_set })
            .collect()
    }

    /// Whether a solution vector admits the given demanded stream.
    pub fn admits(&self, x: &[f64], stream: StreamId) -> bool {
        self.hosts
            .iter()
            .any(|&h| self.d.get(&(h, stream)).is_some_and(|v| x[v.index()] > 0.5))
    }

    /// Decodes a solution into a fresh deployment allocation, merging the
    /// fixed (untouched) portion of the previous state.
    ///
    /// A solution of the model reduced against `prev` is zero on every
    /// fixed column except where `prev` (or its availability fixpoint) has
    /// the entity, so with that reduction on record the columns read are
    /// those of its free space plus the ones the deployment names; the
    /// skeleton's maps are scanned whole otherwise.
    pub fn decode(&self, xsol: &[f64], prev: &DeploymentState) -> DecodedAllocation {
        if let Some(r) = self.reduced_at(prev) {
            let mut out = r.outside.clone();
            self.read_space_columns(xsol, r, &mut out);
            debug_assert!(
                out == self.decode_scanning(xsol, prev),
                "decode: the solution leaves the bounds of the reduction it is decoded under"
            );
            return out;
        }
        self.decode_scanning(xsol, prev)
    }

    /// [`Self::decode`] reading every column of the skeleton.
    fn decode_scanning(&self, xsol: &[f64], prev: &DeploymentState) -> DecodedAllocation {
        let mut out = self.unrepresented(prev);
        let on = |v: &VarId| xsol[v.index()] > 0.5;
        for (&(h, s), v) in &self.d {
            if on(v) {
                out.provided.insert(s, h);
            }
        }
        for (&key, v) in &self.x {
            if on(v) {
                out.flows.insert(key);
            }
        }
        for (&key, v) in &self.y {
            if on(v) {
                out.available.insert(key);
            }
        }
        for (&key, v) in &self.z {
            if on(v) {
                out.placements.insert(key);
            }
        }
        out
    }

    /// The part of `prev` the skeleton has no columns for.
    fn unrepresented(&self, prev: &DeploymentState) -> DecodedAllocation {
        let mut out = DecodedAllocation::default();
        for (&s, &h) in prev.provided() {
            if !self.free_streams.contains(&s) {
                out.provided.insert(s, h);
            }
        }
        for &(h, m, s) in prev.flows() {
            if !self.free_streams.contains(&s) {
                out.flows.insert((h, m, s));
            }
        }
        for &(h, s) in prev.available() {
            if !self.free_streams.contains(&s) {
                out.available.insert((h, s));
            }
        }
        for &(h, o) in prev.placements() {
            if !self.free_ops.contains(&o) {
                out.placements.insert((h, o));
            }
        }
        out
    }

    /// [`Reduction::outside`] for the reduction just written: outside its
    /// free space a column is fixed, and fixed at one only where the
    /// deployment (or its availability fixpoint) has the entity — so those
    /// are the columns whose bounds are read.
    fn decode_outside(&self, r: &Reduction) -> DecodedAllocation {
        let mut out = self.unrepresented(&r.state);
        let at_one = |v: &VarId| self.milp.var_bounds(*v).0 > 0.5;
        for (&s, &h) in r.state.provided() {
            if !r.streams.contains(&s) && self.d.get(&(h, s)).is_some_and(at_one) {
                out.provided.insert(s, h);
            }
        }
        for key in r.state.flows() {
            if !r.streams.contains(&key.2) && self.x.get(key).is_some_and(at_one) {
                out.flows.insert(*key);
            }
        }
        for key in &r.derived {
            if !r.streams.contains(&key.1) && self.y.get(key).is_some_and(at_one) {
                out.available.insert(*key);
            }
        }
        for key in r.state.placements() {
            if !r.ops.contains(&key.1) && self.z.get(key).is_some_and(at_one) {
                out.placements.insert(*key);
            }
        }
        out
    }

    /// Adds the entities of `r`'s free space whose column is on in `xsol`.
    fn read_space_columns(&self, xsol: &[f64], r: &Reduction, out: &mut DecodedAllocation) {
        let on = |v: &VarId| xsol[v.index()] > 0.5;
        for &s in &r.streams {
            for &h in &self.hosts {
                if self.d.get(&(h, s)).is_some_and(on) {
                    out.provided.insert(s, h);
                }
                if self.y.get(&(h, s)).is_some_and(on) {
                    out.available.insert((h, s));
                }
                for &m in &self.hosts {
                    if self.x.get(&(h, m, s)).is_some_and(on) {
                        out.flows.insert((h, m, s));
                    }
                }
            }
        }
        for &o in &r.ops {
            for &h in &self.hosts {
                if self.z.get(&(h, o)).is_some_and(on) {
                    out.placements.insert((h, o));
                }
            }
        }
    }
    /// Re-bounds the columns of stream `s` for a reduction in which the
    /// stream is `free` (inside the space) or fixed at `state`, whose
    /// availability fixpoint is `derived`. Returns the number of columns
    /// written.
    fn reduce_stream(
        &mut self,
        s: StreamId,
        free: bool,
        state: &DeploymentState,
        derived: &BTreeSet<(HostId, StreamId)>,
    ) -> usize {
        let at = |on: bool| if on { (1.0, 1.0) } else { (0.0, 0.0) };
        let disabled = self.demand_kind.get(&s) == Some(&DemandKind::Disabled);
        let mut writes = 0;
        for i in 0..self.hosts.len() {
            let h = self.hosts[i];
            if let Some(&v) = self.y.get(&(h, s)) {
                let (lb, ub) = if !free {
                    at(derived.contains(&(h, s)))
                } else if self.pinned.contains(&(h, s)) {
                    (1.0, 1.0)
                } else {
                    (0.0, 1.0)
                };
                self.milp.set_bounds(v, lb, ub);
                writes += 1;
            }
            for j in 0..self.hosts.len() {
                let m = self.hosts[j];
                if let Some(&v) = self.x.get(&(h, m, s)) {
                    let (lb, ub) = if free {
                        (0.0, 1.0)
                    } else {
                        at(state.flows().contains(&(h, m, s)))
                    };
                    self.milp.set_bounds(v, lb, ub);
                    writes += 1;
                }
            }
            if let Some(&v) = self.d.get(&(h, s)) {
                let (lb, ub) = if disabled {
                    (0.0, 0.0)
                } else if free {
                    (0.0, 1.0)
                } else {
                    at(state.provider_of(s) == Some(h))
                };
                self.milp.set_bounds(v, lb, ub);
                writes += 1;
            }
        }
        writes
    }

    /// [`Self::reduce_stream`] for the placement columns of operator `o`.
    fn reduce_op(&mut self, o: OperatorId, free: bool, state: &DeploymentState) -> usize {
        let mut writes = 0;
        for i in 0..self.hosts.len() {
            let h = self.hosts[i];
            if let Some(&v) = self.z.get(&(h, o)) {
                let (lb, ub) = if free {
                    (0.0, 1.0)
                } else if state.is_placed(h, o) {
                    (1.0, 1.0)
                } else {
                    (0.0, 0.0)
                };
                self.milp.set_bounds(v, lb, ub);
                writes += 1;
            }
        }
        writes
    }

    /// Debug-build check of a shortcut: `reference` is a copy of the
    /// skeleton taken before the call (copies carry no memo), `full` the
    /// same call on it — necessarily a full pass. Both must end with the
    /// same model and registries.
    #[cfg(debug_assertions)]
    fn verify_against(
        &self,
        reference: Option<PlanningModel>,
        what: &str,
        full: impl FnOnce(&mut PlanningModel),
    ) {
        let Some(mut reference) = reference else {
            return;
        };
        full(&mut reference);
        let diff = self.milp.first_difference(&reference.milp);
        assert!(
            diff.is_none(),
            "{what}: shortcut diverged from the full pass: {}",
            diff.unwrap_or_default()
        );
        assert!(
            self.pinned == reference.pinned
                && self.fixed_producer == reference.fixed_producer
                && self.demand_kind == reference.demand_kind
                && self.fixed_cpu == reference.fixed_cpu
                && self.cut_rows == reference.cut_rows,
            "{what}: shortcut diverged from the full pass in the registries"
        );
    }
}

/// A decoded allocation ready to install into a [`DeploymentState`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodedAllocation {
    pub provided: BTreeMap<StreamId, HostId>,
    pub flows: BTreeSet<(HostId, HostId, StreamId)>,
    pub available: BTreeSet<(HostId, StreamId)>,
    pub placements: BTreeSet<(HostId, OperatorId)>,
}

impl DecodedAllocation {
    /// Installs this allocation into the deployment state.
    pub fn install(self, state: &mut DeploymentState) {
        state.replace_allocation(self.provided, self.flows, self.available, self.placements);
    }
}

#[cfg(test)]
mod tests {
    //! What invalidates the skeleton's memo, and what a reduction costs as the
    //! skeleton grows — both read off the crate-private [`PassLog`].

    use super::*;
    use crate::greedy::greedy_admit;
    use crate::query::register_join_query;
    use sqpr_dsps::{CostModel, HostSpec, QueryId};

    const HOSTS: usize = 3;

    /// A skeleton two cut rounds into its second submission: every memo is
    /// populated, and a further round with the same inputs is a no-op.
    struct Warm {
        catalog: Catalog,
        state: DeploymentState,
        model: PlanningModel,
        covered: PlanSpace,
        space: PlanSpace,
        new_streams: [StreamId; 1],
        bases: Vec<StreamId>,
    }

    impl Warm {
        fn new() -> Self {
            let mut catalog = Catalog::uniform(
                HOSTS,
                HostSpec::new(500.0, 2000.0),
                1000.0,
                CostModel::default(),
            );
            let bases: Vec<StreamId> = (0..5)
                .map(|i| catalog.add_base_stream(HostId((i % HOSTS) as u32), 6.0, i as u64))
                .collect();
            let (first, first_space) =
                register_join_query(&mut catalog, QueryId(0), &[bases[0], bases[1]], 0);
            let (second, space) =
                register_join_query(&mut catalog, QueryId(1), &[bases[1], bases[2]], 0);
            let mut state = DeploymentState::new();
            let weights = ObjectiveWeights::paper_defaults(&catalog);
            let model = PlanningModel::build(&ModelInputs {
                catalog: &catalog,
                state: &state,
                space: &first_space,
                new_streams: &[first.result],
                weights,
                relay_policy: RelayPolicy::All,
                acyclicity: AcyclicityMode::Lazy,
                replan: true,
                cuts: &[],
            });
            state = greedy_admit(&catalog, &state, first.result, 0).expect("room for one query");
            state.admit_query(QueryId(0), first.result);
            let mut covered = first_space;
            covered.merge(&space);
            let mut warm = Warm {
                catalog,
                state,
                model,
                covered,
                space,
                new_streams: [second.result],
                bases,
            };
            warm.round();
            warm.round();
            assert_eq!(
                warm.passes(),
                (Pass::Unchanged, Pass::Unchanged, Pass::Unchanged)
            );
            assert_eq!(warm.model.passes.reduction_writes, 0);
            warm
        }

        /// The planner's per-construction call sequence.
        fn round(&mut self) {
            self.model.extend(&ModelInputs {
                catalog: &self.catalog,
                state: &self.state,
                space: &self.covered,
                new_streams: &self.new_streams,
                weights: ObjectiveWeights::paper_defaults(&self.catalog),
                relay_policy: RelayPolicy::All,
                acyclicity: AcyclicityMode::Lazy,
                replan: true,
                cuts: &[],
            });
            self.model
                .apply_reduction(&self.space, &self.state, &self.catalog);
            self.model.set_fold_exemptions([&self.space]);
        }

        fn passes(&self) -> (Pass, Pass, Pass) {
            let log = self.model.passes;
            (log.extend, log.reduction, log.exempt)
        }
    }

    /// Every public mutator of `DeploymentState`, touched between two rounds,
    /// takes `extend` and `apply_reduction` off their no-op path — whether or
    /// not the call changed anything (a revision is renewed, not compared).
    #[test]
    fn every_deployment_mutator_invalidates_the_memo() {
        type Mutator = (&'static str, fn(&mut Warm));
        let mutators: [Mutator; 11] = [
            ("set_provided", |w| {
                w.state.set_provided(w.bases[3], HostId(0))
            }),
            ("clear_provided", |w| w.state.clear_provided(w.bases[3])),
            ("add_flow", |w| {
                w.state.add_flow(HostId(0), HostId(1), w.bases[0])
            }),
            ("remove_flow", |w| {
                w.state.remove_flow(HostId(0), HostId(1), w.bases[0])
            }),
            ("add_available", |w| {
                w.state.add_available(HostId(0), w.bases[0])
            }),
            ("add_placement", |w| {
                let o = w.space.operators[0];
                w.state.add_placement(HostId(2), o)
            }),
            ("remove_placement", |w| {
                let o = w.space.operators[0];
                w.state.remove_placement(HostId(2), o)
            }),
            ("admit_query", |w| {
                let s = w.new_streams[0];
                w.state.admit_query(QueryId(7), s)
            }),
            ("remove_query", |w| {
                w.state.remove_query(QueryId(0));
            }),
            ("replace_allocation", |w| {
                let s = &w.state;
                let (p, f, a, z) = (
                    s.provided().clone(),
                    s.flows().clone(),
                    s.available().clone(),
                    s.placements().clone(),
                );
                w.state.replace_allocation(p, f, a, z)
            }),
            ("audit_failures", |w| {
                w.state = w.state.audit_failures(&w.catalog).survivor
            }),
        ];
        for (name, mutate) in mutators {
            let mut warm = Warm::new();
            mutate(&mut warm);
            warm.round();
            let (extend, reduction, _) = warm.passes();
            assert_ne!(
                extend,
                Pass::Unchanged,
                "{name}: extend took the no-op path"
            );
            assert_ne!(
                reduction,
                Pass::Unchanged,
                "{name}: apply_reduction took the no-op path"
            );
        }
    }

    /// Every public mutator of `Catalog` that can change something about an
    /// entity the skeleton already has sends all of it back to the full pass;
    /// interning more composite streams and operators — what registering a
    /// query does — changes none of them and keeps the shortcuts.
    #[test]
    fn catalog_substrate_mutators_force_the_full_pass() {
        type Mutator = (&'static str, fn(&mut Warm));
        let mutators: [Mutator; 9] = [
            ("fail_host", |w| {
                w.catalog.fail_host(HostId(2));
            }),
            ("restore_host", |w| {
                w.catalog.fail_host(HostId(2));
                w.round();
                w.catalog.restore_host(HostId(2));
            }),
            ("degrade_link", |w| {
                w.catalog.degrade_link(HostId(0), HostId(1), 500.0);
            }),
            ("restore_link", |w| {
                w.catalog.restore_link(HostId(0), HostId(1));
            }),
            ("rehome_base_stream", |w| {
                w.catalog.rehome_base_stream(w.bases[4], HostId(0))
            }),
            ("rehome_orphaned_sources", |w| {
                w.catalog.fail_host(HostId(2));
                w.round();
                assert!(!w.catalog.rehome_orphaned_sources().is_empty());
            }),
            ("add_base_stream", |w| {
                w.catalog.add_base_stream(HostId(0), 6.0, 99);
            }),
            ("update_base_rate", |w| {
                w.catalog.update_base_rate(w.bases[4], 7.0)
            }),
            ("refresh_derived", |w| w.catalog.refresh_derived()),
        ];
        for (name, mutate) in mutators {
            let mut warm = Warm::new();
            mutate(&mut warm);
            warm.round();
            let (extend, reduction, _) = warm.passes();
            assert_eq!(extend, Pass::Full, "{name}: extend");
            assert_eq!(reduction, Pass::Full, "{name}: apply_reduction");
        }

        let mut warm = Warm::new();
        let bases = [warm.bases[2], warm.bases[3], warm.bases[4]];
        register_join_query(&mut warm.catalog, QueryId(2), &bases, 0);
        warm.round();
        assert_eq!(
            warm.passes(),
            (Pass::Unchanged, Pass::Unchanged, Pass::Unchanged),
            "interning composites must not cost the memo"
        );
    }

    /// A clone carries no memo, and a write to the public `milp` field behind
    /// the skeleton's back voids the one it has.
    #[test]
    fn clones_and_outside_writes_start_over() {
        let warm = Warm::new();
        let mut parked = Warm {
            model: warm.model.clone(),
            ..warm
        };
        parked.round();
        assert_eq!(parked.passes(), (Pass::Full, Pass::Full, Pass::Full));

        let mut warm = Warm::new();
        let (free_column, lb) = warm
            .model
            .y
            .values()
            .map(|&v| (v, warm.model.milp.var_bounds(v)))
            .find_map(|(v, (lb, ub))| (lb < ub).then_some((v, lb)))
            .expect("the free space has free columns");
        warm.model.milp.set_bounds(free_column, lb, lb);
        warm.round();
        assert_eq!(warm.passes(), (Pass::Full, Pass::Full, Pass::Full));
    }

    /// A new submission re-bounds the previous and the new free space plus
    /// what the deployment changed — not the skeleton. 80 unsaturated
    /// admissions grow the skeleton many-fold; the columns `apply_reduction`
    /// writes per submission stay where they were.
    #[test]
    fn reduction_writes_follow_the_spaces_not_the_skeleton() {
        const H: usize = 4;
        let mut catalog = Catalog::uniform(H, HostSpec::new(1e6, 1e6), 1e6, CostModel::default());
        let bases: Vec<StreamId> = (0..60)
            .map(|i| catalog.add_base_stream(HostId((i % H) as u32), 5.0, i as u64))
            .collect();
        let weights = ObjectiveWeights::paper_defaults(&catalog);
        let mut state = DeploymentState::new();
        let mut covered = PlanSpace::default();
        let mut model: Option<PlanningModel> = None;
        let mut previous_space = PlanSpace::default();
        // (skeleton columns, columns written) per submission.
        let mut rounds: Vec<(usize, usize)> = Vec::new();
        for q in 0..80u32 {
            // Distinct base pairs and triples, deterministic, little overlap.
            let i = (q as usize * 7) % bases.len();
            let mut picked = vec![bases[i], bases[(i + 1 + q as usize % 5) % bases.len()]];
            if q % 3 == 0 {
                picked.push(bases[(i + 11) % bases.len()]);
            }
            let (spec, space) = register_join_query(&mut catalog, QueryId(q), &picked, 0);
            if state.provider_of(spec.result).is_some() {
                state.admit_query(QueryId(q), spec.result);
                continue;
            }
            covered.merge(&space);
            let inputs = ModelInputs {
                catalog: &catalog,
                state: &state,
                space: &covered,
                new_streams: &[spec.result],
                weights,
                relay_policy: RelayPolicy::All,
                acyclicity: AcyclicityMode::Lazy,
                replan: true,
                cuts: &[],
            };
            let mut m = match model.take() {
                None => PlanningModel::build(&inputs),
                Some(mut m) => {
                    m.extend(&inputs);
                    m
                }
            };
            m.apply_reduction(&space, &state, &catalog);
            if rounds.len() > 1 {
                assert_eq!(m.passes.reduction, Pass::Delta, "query {q}");
                // Each stream owns H^2 + H decision columns at most (y, d, x),
                // each operator H; one admission moves a plan's worth of them.
                let entities =
                    |sp: &PlanSpace| sp.streams.len() * (H * H + H) + sp.operators.len() * H;
                assert!(
                    m.passes.reduction_writes <= 2 * (entities(&previous_space) + entities(&space)),
                    "query {q}: {} columns written for spaces of {} and {}",
                    m.passes.reduction_writes,
                    entities(&previous_space),
                    entities(&space)
                );
            }
            rounds.push((m.num_vars(), m.passes.reduction_writes));
            state = greedy_admit(&catalog, &state, spec.result, 0).expect("unsaturated");
            state.admit_query(QueryId(q), spec.result);
            previous_space = space;
            model = Some(m);
        }
        let (early, late) = (&rounds[2..12], &rounds[rounds.len() - 10..]);
        let most = |w: &[(usize, usize)]| w.iter().map(|&(_, writes)| writes).max().unwrap_or(0);
        assert!(
            late[0].0 >= 4 * early[0].0,
            "the skeleton was meant to grow: {} -> {} columns",
            early[0].0,
            late[0].0
        );
        assert!(
            most(late) <= 2 * most(early),
            "writes per submission grew with the skeleton: {} early, {} late",
            most(early),
            most(late)
        );
    }
}
