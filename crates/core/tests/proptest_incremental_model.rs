//! The skeleton's shortcuts against its full passes.
//!
//! `PlanningModel::{extend, apply_reduction, set_fold_exemptions}` skip
//! what their memo says cannot have changed. A clone carries no memo, so
//! the same three calls on a clone taken just before are full passes over
//! every column — the reference. Random lifecycles (submissions with one to
//! three cut rounds, retries of rejected queries, removals, host failures
//! and restorations, link degradations) are driven through both, and after
//! every round the two models must agree on every variable bound, row bound
//! and fold-exempt flag, and on what `warm_start`, `decode`, `admits` and
//! `find_acausal_cuts` return.
//!
//! The "solver" is the greedy constructor: it moves the deployment the way
//! admissions do without involving branch & bound, so the test stays about
//! the model layer. Debug builds run the same comparison inside the three
//! functions on every call; this suite also pins it in release builds.
//!
//! A planning round's cut rounds rest on one construction identity, pinned
//! here too: `build` with cuts `C` is `build` without them followed by
//! `extend` with `C`, so appending a round's new cuts to its skeleton
//! gives the model a fresh build with every cut so far would give.

use std::collections::BTreeSet;

use sqpr_core::model::AvailabilityCut;
use sqpr_core::{
    full_space, garbage_collect, greedy_admit, register_join_query, AcyclicityMode, ModelInputs,
    ObjectiveWeights, PlanSpace, PlanningModel, RelayPolicy,
};
use sqpr_dsps::{Catalog, CostModel, DeploymentState, HostId, HostSpec, QueryId, StreamId};

/// SplitMix64: the suite needs a few thousand reproducible draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Query {
    id: QueryId,
    result: StreamId,
    space: PlanSpace,
}

struct Lifecycle {
    catalog: Catalog,
    bases: Vec<StreamId>,
    state: DeploymentState,
    model: Option<PlanningModel>,
    covered: PlanSpace,
    cuts: Vec<AvailabilityCut>,
    queries: Vec<Query>,
    weights: ObjectiveWeights,
    relay: RelayPolicy,
    rounds: usize,
    shortcut_rounds: usize,
}

const HOSTS: usize = 4;

impl Lifecycle {
    fn new(relay: RelayPolicy) -> Self {
        // Tight enough that some queries are rejected (the retry and the
        // fold-exemption paths need rejected queries).
        let mut catalog = Catalog::uniform(
            HOSTS,
            HostSpec::new(60.0, 400.0),
            300.0,
            CostModel::default(),
        );
        let bases = (0..8)
            .map(|i| catalog.add_base_stream(HostId((i % HOSTS) as u32), 8.0, i as u64))
            .collect();
        let weights = ObjectiveWeights::paper_defaults(&catalog);
        Lifecycle {
            catalog,
            bases,
            state: DeploymentState::new(),
            model: None,
            covered: PlanSpace::default(),
            cuts: Vec::new(),
            queries: Vec::new(),
            weights,
            relay,
            rounds: 0,
            shortcut_rounds: 0,
        }
    }

    /// Spaces of the latest few queries that are not admitted — what the
    /// planner keeps fold-exempt.
    fn rejected_spaces(&self) -> Vec<PlanSpace> {
        self.queries
            .iter()
            .rev()
            .take(4)
            .filter(|q| !self.state.admitted().contains_key(&q.id))
            .map(|q| q.space.clone())
            .collect()
    }

    /// One planning round for `q`: the planner's call sequence, once per
    /// cut round, on the live skeleton and on a memo-less copy of it.
    fn plan(&mut self, q: usize, draws: &mut Draws) {
        let (id, result, space) = {
            let q = &self.queries[q];
            (q.id, q.result, q.space.clone())
        };
        let new_streams = [result];
        for cut_round in 0..(1 + draws.below(3)) {
            if cut_round > 0 {
                let stream = space.streams[draws.below(space.streams.len())];
                let mut dead_set: BTreeSet<HostId> = (0..HOSTS)
                    .filter(|_| draws.below(2) == 0)
                    .map(|h| HostId(h as u32))
                    .collect();
                dead_set.insert(HostId(draws.below(HOSTS) as u32));
                let cut = AvailabilityCut { stream, dead_set };
                if !self.cuts.contains(&cut) {
                    self.cuts.push(cut);
                }
            }
            self.covered.merge(&space);
            let exempt = self.rejected_spaces();
            let inputs = ModelInputs {
                catalog: &self.catalog,
                state: &self.state,
                space: &self.covered,
                new_streams: &new_streams,
                weights: self.weights,
                relay_policy: self.relay,
                acyclicity: AcyclicityMode::Lazy,
                replan: true,
                cuts: &self.cuts,
            };
            let (model, reference) = match self.model.take() {
                None => {
                    let built = PlanningModel::build(&inputs);
                    (built.clone(), built)
                }
                Some(mut model) => {
                    let mut reference = model.clone();
                    model.extend(&inputs);
                    model.apply_reduction(&space, &self.state, &self.catalog);
                    reference.extend(&inputs);
                    reference.apply_reduction(&space, &self.state, &self.catalog);
                    self.shortcut_rounds += 1;
                    (model, reference)
                }
            };
            let (mut model, mut reference) = (model, reference);
            model.set_fold_exemptions(exempt.iter());
            reference.set_fold_exemptions(exempt.iter());
            self.rounds += 1;
            let context = format!("round {} (query {id}, cut round {cut_round})", self.rounds);
            assert_eq!(
                model.milp.first_difference(&reference.milp),
                None,
                "{context}: the shortcuts left a different model than the full passes"
            );
            self.compare_readers(&model, result, &context);
            self.model = Some(model);
        }
    }

    /// `warm_start`, `decode`, `admits` and `find_acausal_cuts` read the
    /// deployment instead of the skeleton when the memo allows; a clone has
    /// no memo and scans.
    fn compare_readers(&self, model: &PlanningModel, result: StreamId, context: &str) {
        let scanning = model.clone();
        let mut points = vec![model.warm_start(&self.state, &self.catalog)];
        if let Some(cand) = greedy_admit(&self.catalog, &self.state, result, 0) {
            points.push(model.warm_start(&cand, &self.catalog));
            assert_eq!(
                points[1],
                scanning.warm_start(&cand, &self.catalog),
                "{context}: warm_start of the greedy candidate"
            );
        }
        assert_eq!(
            points[0],
            scanning.warm_start(&self.state, &self.catalog),
            "{context}: warm_start of the deployment"
        );
        for x in points.into_iter().flatten() {
            if !model.milp.is_feasible(&x, 1e-6) {
                // `decode` is specified for points within the model's
                // bounds (the greedy candidate may leave the free space).
                continue;
            }
            assert_eq!(
                model.decode(&x, &self.state),
                scanning.decode(&x, &self.state),
                "{context}: decode"
            );
            assert_eq!(
                model.admits(&x, result),
                scanning.admits(&x, result),
                "{context}: admits"
            );
            assert_eq!(
                model.find_acausal_cuts(&x, &self.state, &self.catalog),
                scanning.find_acausal_cuts(&x, &self.state, &self.catalog),
                "{context}: find_acausal_cuts"
            );
        }
    }

    fn submit(&mut self, draws: &mut Draws) {
        let k = 2 + draws.below(2);
        let mut picked: Vec<StreamId> = Vec::new();
        while picked.len() < k {
            let b = self.bases[draws.below(self.bases.len())];
            if !picked.contains(&b) {
                picked.push(b);
            }
        }
        let id = QueryId(self.queries.len() as u32);
        let (spec, space) = register_join_query(&mut self.catalog, id, &picked, 0);
        self.queries.push(Query {
            id,
            result: spec.result,
            space,
        });
        if self.state.provider_of(spec.result).is_some() {
            self.state.admit_query(id, spec.result);
            return;
        }
        self.plan_and_admit(self.queries.len() - 1, draws);
    }

    fn plan_and_admit(&mut self, q: usize, draws: &mut Draws) {
        self.plan(q, draws);
        let (id, result) = (self.queries[q].id, self.queries[q].result);
        // Three rounds in four end in an admission, if one can be built.
        if draws.below(4) > 0 {
            if let Some(next) = greedy_admit(&self.catalog, &self.state, result, 0) {
                self.state = next;
                self.state.admit_query(id, result);
            }
        }
    }

    fn retry(&mut self, draws: &mut Draws) {
        let rejected: Vec<usize> = (0..self.queries.len())
            .filter(|&q| !self.state.admitted().contains_key(&self.queries[q].id))
            .collect();
        if rejected.is_empty() {
            return;
        }
        let q = rejected[draws.below(rejected.len())];
        if self.state.provider_of(self.queries[q].result).is_some() {
            self.state
                .admit_query(self.queries[q].id, self.queries[q].result);
            return;
        }
        self.plan_and_admit(q, draws);
    }

    fn remove(&mut self, draws: &mut Draws) {
        let admitted: Vec<QueryId> = self.state.admitted().keys().copied().collect();
        if admitted.is_empty() {
            return;
        }
        let id = admitted[draws.below(admitted.len())];
        let Some(stream) = self.state.remove_query(id) else {
            return;
        };
        if !self.state.admitted().values().any(|&s| s == stream) {
            self.state.clear_provided(stream);
            garbage_collect(&mut self.state, &self.catalog);
        }
    }

    fn absorb_failures(&mut self) {
        let audit = self.state.audit_failures(&self.catalog);
        self.state = audit.survivor;
        garbage_collect(&mut self.state, &self.catalog);
    }

    fn step(&mut self, draws: &mut Draws) {
        match draws.below(16) {
            0..=6 => self.submit(draws),
            7..=9 => self.retry(draws),
            10..=11 => self.remove(draws),
            12 => {
                let h = HostId(draws.below(HOSTS) as u32);
                if self.catalog.fail_host(h) {
                    self.catalog.rehome_orphaned_sources();
                    self.absorb_failures();
                }
            }
            13 => {
                let failed: Vec<HostId> = self.catalog.failed_hosts().collect();
                if let Some(&h) = failed.first() {
                    self.catalog.restore_host(h);
                }
            }
            14 => {
                let (h, m) = (draws.below(HOSTS), draws.below(HOSTS));
                if h != m {
                    self.catalog
                        .degrade_link(HostId(h as u32), HostId(m as u32), 20.0);
                    self.absorb_failures();
                }
            }
            _ => {
                let (h, m) = (draws.below(HOSTS), draws.below(HOSTS));
                if h != m {
                    self.catalog
                        .restore_link(HostId(h as u32), HostId(m as u32));
                }
            }
        }
    }
}

#[test]
fn shortcuts_leave_the_model_the_full_passes_leave() {
    let mut shortcut_rounds = 0;
    for seed in 0..12u64 {
        let relay = if seed % 4 == 3 {
            RelayPolicy::ProducersOnly
        } else {
            RelayPolicy::All
        };
        let mut draws = Draws(seed);
        let mut life = Lifecycle::new(relay);
        for _ in 0..60 {
            life.step(&mut draws);
        }
        assert!(
            life.state.is_valid(&life.catalog) || life.catalog.failed_hosts().next().is_some(),
            "seed {seed}: the lifecycle left an invalid deployment"
        );
        shortcut_rounds += life.shortcut_rounds;
    }
    // The suite is only worth its name if the shortcuts ran.
    assert!(
        shortcut_rounds >= 400,
        "only {shortcut_rounds} rounds went through an existing skeleton"
    );
}

/// A random instance to plan on: a tight catalog, a deployment the greedy
/// constructor admitted a few queries into, and one more query whose
/// result nothing provides yet — with its plan space, or the whole catalog
/// (the reduction-off configuration).
fn random_instance(draws: &mut Draws) -> (Catalog, DeploymentState, StreamId, PlanSpace) {
    let mut catalog = Catalog::uniform(
        HOSTS,
        HostSpec::new(60.0 + 20.0 * draws.below(4) as f64, 400.0),
        300.0,
        CostModel::default(),
    );
    let bases: Vec<StreamId> = (0..8)
        .map(|i| catalog.add_base_stream(HostId((i % HOSTS) as u32), 8.0, i as u64))
        .collect();
    let mut state = DeploymentState::new();
    for q in 0.. {
        let mut picked: Vec<StreamId> = Vec::new();
        while picked.len() < 2 + draws.below(2) {
            let b = bases[draws.below(bases.len())];
            if !picked.contains(&b) {
                picked.push(b);
            }
        }
        let id = QueryId(q);
        let (spec, space) = register_join_query(&mut catalog, id, &picked, 0);
        if state.provider_of(spec.result).is_some() {
            continue;
        }
        if q >= 2 + draws.below(4) as u32 {
            let space = if draws.below(4) == 0 {
                full_space(&catalog)
            } else {
                space
            };
            return (catalog, state, spec.result, space);
        }
        if let Some(next) = greedy_admit(&catalog, &state, spec.result, 0) {
            state = next;
            state.admit_query(id, spec.result);
        }
    }
    unreachable!("the query loop only ends by returning")
}

/// One batch of cuts on the space's streams, drawn from a small pool so
/// batches repeat cuts within and across each other.
fn random_cuts(draws: &mut Draws, space: &PlanSpace) -> Vec<AvailabilityCut> {
    (0..1 + draws.below(4))
        .map(|_| {
            let stream = space.streams[draws.below(space.streams.len().min(6))];
            let mut dead_set: BTreeSet<HostId> = BTreeSet::new();
            dead_set.insert(HostId(draws.below(HOSTS) as u32));
            if draws.below(2) == 0 {
                dead_set.insert(HostId(draws.below(HOSTS) as u32));
            }
            AvailabilityCut { stream, dead_set }
        })
        .collect()
}

#[test]
fn extending_with_cuts_gives_the_model_building_with_them_gives() {
    let mut cut_rows = 0;
    for seed in 0..48u64 {
        let relay = if seed % 2 == 0 {
            RelayPolicy::All
        } else {
            RelayPolicy::ProducersOnly
        };
        let replan = seed % 4 < 2;
        let mut draws = Draws(1000 + seed);
        let (catalog, state, result, space) = random_instance(&mut draws);
        let new_streams = [result];
        let uncut = ModelInputs {
            catalog: &catalog,
            state: &state,
            space: &space,
            new_streams: &new_streams,
            weights: ObjectiveWeights::paper_defaults(&catalog),
            relay_policy: relay,
            acyclicity: AcyclicityMode::Lazy,
            replan,
            cuts: &[],
        };
        // Three cut rounds' worth: the first builds, the later ones extend.
        let mut model = PlanningModel::build(&uncut);
        let uncut_rows = model.num_cons();
        let mut so_far: Vec<AvailabilityCut> = Vec::new();
        for round in 2..=3 {
            let batch = random_cuts(&mut draws, &space);
            model.extend(&ModelInputs {
                cuts: &batch,
                ..uncut
            });
            so_far.extend(batch);
            let reference = PlanningModel::build(&ModelInputs {
                cuts: &so_far,
                ..uncut
            });
            // A cut's rows name its stream and dead set, so equal rows in
            // equal order are equal cuts in equal order.
            assert_eq!(
                model.milp.first_difference(&reference.milp),
                None,
                "seed {seed} ({relay:?}, replan {replan}), cut round {round}: extending \
                 with the cuts left a different model than building with them"
            );
            let rows = model.num_cons();
            model.extend(&ModelInputs {
                cuts: &so_far,
                ..uncut
            });
            assert_eq!(
                model.num_cons(),
                rows,
                "seed {seed}, cut round {round}: a registered cut was appended again"
            );
            cut_rows += rows - uncut_rows;
        }
    }
    assert!(cut_rows > 0, "no instance appended a cut row");
}
