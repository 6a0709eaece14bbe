//! Adaptive query planning (paper §IV-B).
//!
//! Initial planning is based on cost-model estimates; rates drift at
//! runtime. SQPR "stores the resource estimates used during initial
//! planning … and periodically constructs a list of queries (a) for which
//! the resource consumption differs from the initial estimates by a given
//! threshold or (b) that suffer from a shortage of resources on a host. It
//! then re-plans these queries by considering the system without those
//! queries and re-adding them."

use std::collections::{BTreeMap, BTreeSet};

use sqpr_dsps::{QueryId, RateSketch, StreamId};

use crate::planner::SqprPlanner;

/// Report of one adaptation round.
#[derive(Debug, Clone, Default)]
pub struct AdaptReport {
    /// Base streams whose observed rate deviated beyond the threshold.
    pub drifted_streams: Vec<StreamId>,
    /// Queries selected for re-planning (criterion (a) or (b)).
    pub replanned: Vec<QueryId>,
    /// Queries re-admitted successfully.
    pub readmitted: Vec<QueryId>,
    /// Queries dropped because no feasible plan was found after the drift.
    pub dropped: Vec<QueryId>,
}

/// Applies observed base-stream rates and re-plans affected queries.
///
/// `threshold` is the relative deviation that triggers re-planning
/// (criterion (a)); after the drift pass, any remaining resource shortage
/// triggers a full re-plan sweep (criterion (b)). An observation that is
/// not a finite, positive rate, or whose id is not a base stream of the
/// planner's catalog, is junk from a failed probe and is skipped: its
/// stream is neither drifted nor updated.
pub fn adapt_to_observed_rates(
    planner: &mut SqprPlanner,
    observed: &[(StreamId, f64)],
    threshold: f64,
) -> AdaptReport {
    let mut report = AdaptReport::default();

    // Criterion (a): rate drift beyond the threshold.
    let mut drifted: BTreeSet<StreamId> = BTreeSet::new();
    for &(s, rate) in observed {
        if !(rate.is_finite() && rate > 0.0 && is_base_stream(planner, s)) {
            continue;
        }
        let old = planner.catalog().stream(s).rate;
        if old > 0.0 && ((rate - old) / old).abs() > threshold {
            drifted.insert(s);
        }
        planner.update_base_rate(s, rate);
    }
    report.drifted_streams = drifted.iter().copied().collect();

    let affected: Vec<QueryId> = planner
        .queries()
        .iter()
        .filter(|spec| {
            planner.state().admitted().contains_key(&spec.id)
                && spec.bases.iter().any(|b| drifted.contains(b))
        })
        .map(|spec| spec.id)
        .collect();

    for q in affected {
        report.replan(planner, q);
    }

    // Criterion (b): shortage anywhere -> sweep every admitted query once.
    if !planner.state().is_valid(planner.catalog()) {
        let all: Vec<QueryId> = planner.state().admitted().keys().copied().collect();
        for q in all {
            if planner.state().is_valid(planner.catalog()) {
                break;
            }
            if !report.replanned.contains(&q) {
                report.replan(planner, q);
            }
        }
    }
    report
}

/// Whether `s` names a base stream of the planner's catalog (observations
/// of anything else cannot be applied).
fn is_base_stream(planner: &SqprPlanner, s: StreamId) -> bool {
    let catalog = planner.catalog();
    s.index() < catalog.num_streams() && catalog.source_host(s).is_some()
}

impl AdaptReport {
    /// The adaptation's replan step: re-plan `q` and file it as
    /// re-admitted or dropped.
    fn replan(&mut self, planner: &mut SqprPlanner, q: QueryId) {
        self.replanned.push(q);
        match planner.replan_query(q) {
            Ok(outcome) if outcome.admitted => self.readmitted.push(q),
            _ => self.dropped.push(q),
        }
    }
}

/// The feedback loop between the metrics layer and §IV-B re-planning.
///
/// The planner's rates are cost-model estimates; the running system
/// *measures* them. A `DriftMonitor` accumulates measured per-stream rate
/// samples into bounded sketches ([`sqpr_dsps::RateSketch`], one per
/// stream) and, when asked, compares each stream's window median against
/// the rate the planner currently assumes. Only when some stream's
/// estimate deviates beyond the threshold does it push the observations
/// through [`adapt_to_observed_rates`] — `update_base_rate` invalidates
/// the planner's solver context, so sub-threshold noise must not reach it.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    window: usize,
    /// Streams need this many valid samples before their estimate counts
    /// (a single spike must not trigger a re-planning storm).
    min_samples: usize,
    sketches: BTreeMap<StreamId, RateSketch>,
}

impl DriftMonitor {
    /// A monitor whose per-stream sketches retain `window` samples and
    /// vote only after `min_samples` of them arrived.
    pub fn new(window: usize, min_samples: usize) -> Self {
        assert!(min_samples >= 1 && min_samples <= window);
        DriftMonitor {
            window,
            min_samples,
            sketches: BTreeMap::new(),
        }
    }

    /// Ingests one measured rate sample for base stream `s`.
    pub fn observe(&mut self, s: StreamId, rate: f64) {
        self.sketches
            .entry(s)
            .or_insert_with(|| RateSketch::new(self.window))
            .observe(rate);
    }

    /// Ingests a batch of `(stream, rate)` samples.
    pub fn observe_all(&mut self, samples: &[(StreamId, f64)]) {
        for &(s, rate) in samples {
            self.observe(s, rate);
        }
    }

    /// Current per-stream estimates (window medians), ascending by stream
    /// id, restricted to streams with at least `min_samples` samples.
    pub fn estimates(&self) -> Vec<(StreamId, f64)> {
        self.sketches
            .iter()
            .filter(|(_, sk)| sk.len() >= self.min_samples)
            .filter_map(|(&s, sk)| sk.estimate().map(|e| (s, e)))
            .collect()
    }

    /// Streams whose estimate deviates from the planner's current rate by
    /// more than `threshold` (relative). Ids that are not base streams of
    /// the planner's catalog never drift.
    pub fn drifted(&self, planner: &SqprPlanner, threshold: f64) -> Vec<StreamId> {
        self.estimates()
            .into_iter()
            .filter(|&(s, est)| {
                if !is_base_stream(planner, s) {
                    return false;
                }
                let assumed = planner.catalog().stream(s).rate;
                assumed > 0.0 && ((est - assumed) / assumed).abs() > threshold
            })
            .map(|(s, _)| s)
            .collect()
    }

    /// The adaptation trigger: when any tracked stream drifted beyond
    /// `threshold`, feeds *all* current estimates through
    /// [`adapt_to_observed_rates`] (sub-threshold streams just refresh
    /// their assumed rates; the drifted ones select queries for
    /// re-planning), clears the sketches for the next interval, and
    /// returns the report. Returns `None` — and touches neither planner
    /// nor sketches — while everything is within threshold, so the solver
    /// context survives quiet intervals untouched.
    pub fn adapt_if_drifted(
        &mut self,
        planner: &mut SqprPlanner,
        threshold: f64,
    ) -> Option<AdaptReport> {
        if self.drifted(planner, threshold).is_empty() {
            return None;
        }
        let observed = self.estimates();
        self.sketches.clear();
        Some(adapt_to_observed_rates(planner, &observed, threshold))
    }
}
