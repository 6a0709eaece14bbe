//! The five fixed workloads: what each feeds the planner and why it exists.
//!
//! A workload is a *shape* (system size, arrival count, Zipf skew, node
//! budget, warm or cold solver path, lifecycle script). A run plays fresh
//! planner passes over instances of that shape: a fixed number first, then
//! more until its time box closes. Instance `i` of a run is generated from
//! `instance_seed(seed, i)`, so the `--seed` argument reaches the program
//! only through `sqpr_workload::generate`.
//!
//! Sizing: one pass must be short enough that a 20 s run pools many
//! independent instances — a saturated instance's cost swings by 2x with
//! the seed (how many rejections burn the whole node budget), so steady
//! numbers need fifteen instances per run, not three. That is why the two
//! saturated workloads and `churn_storm` use a node budget well below the
//! 200 nodes of `benches/incremental.rs`: a rejection then costs the same
//! 15 nodes everywhere, one instance takes about a second, and the
//! run-to-run spread falls inside the bounds. `dup_stream` has 1500
//! arrivals for the same reason: at 3000 a run pooled three instances of
//! 7 s and its throughput spread 13–16 % across seeds; at 1500 it pools
//! seven and spreads 8 %, with the same share of short-circuits (0.82).

use crate::adapter::{generate, Workload, WorkloadSpec};

/// Which system preset of `sqpr-workload` the shape starts from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Preset {
    /// `WorkloadSpec::paper_sim(scale)` — §V-A, CPU- and bandwidth-tight.
    Sim(f64),
    /// `WorkloadSpec::paper_cluster(scale)` — §V-B, roomy.
    Cluster(f64),
}

/// The lifecycle script played over the generated arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Submit every arrival once, in order.
    Stream,
    /// Submit every arrival; re-submit each rejected query once, right
    /// after the next arrival (the op sequence of `benches/incremental.rs`).
    StreamWithRetry,
    /// Set-up submits the first `prefill` arrivals. Round `r` of the
    /// measured loop removes the oldest admitted query and submits arrival
    /// `prefill + r`; every `storm_every`-th round fails host
    /// `(r / storm_every) mod hosts`, recovers under a node budget,
    /// restores the host and recovers again.
    Churn {
        prefill: usize,
        storm_every: usize,
        storm_nodes: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line: why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub preset: Preset,
    pub arrivals: usize,
    pub zipf_theta: f64,
    pub node_budget: usize,
    /// `reuse_solver_context`: the incremental path, or a fresh MILP per
    /// query (the paper's behaviour).
    pub warm: bool,
    pub script: Script,
    /// The traced run probes the LP of every fifth solver round.
    pub lp_probe: bool,
    /// Instances a 20 s run plays whatever the clock says — about seven
    /// tenths of what fits on the reference box; see [`Self::fixed_instances`].
    pub fixed_per_20s: usize,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "saturated_retry",
        why: "Admission wall, warm path: rejections burn the node budget, so B&B and dual re-solves dominate; retries are pure cache-patch rounds.",
        preset: Preset::Sim(0.07),
        arrivals: 50,
        zipf_theta: 1.0,
        node_budget: 15,
        warm: true,
        script: Script::StreamWithRetry,
        lp_probe: true,
        fixed_per_20s: 12,
    },
    WorkloadDef {
        name: "saturated_cold",
        why: "Same ops with a fresh MILP per query: model build, full lowering and phase-I/primal simplex instead of extend, patch and dual; the reference for warm decisions.",
        preset: Preset::Sim(0.07),
        arrivals: 50,
        zipf_theta: 1.0,
        node_budget: 15,
        warm: false,
        script: Script::StreamWithRetry,
        lp_probe: true,
        fixed_per_20s: 11,
    },
    WorkloadDef {
        name: "admit_stream",
        why: "Unsaturated growth: every round is first-contact model extension, LP cache rebuild and root LP with B&B idle; an extend/append gain shows here only.",
        preset: Preset::Cluster(0.5),
        arrivals: 250,
        zipf_theta: 1.0,
        node_budget: 100,
        warm: true,
        script: Script::Stream,
        lp_probe: false,
        fixed_per_20s: 3,
    },
    WorkloadDef {
        name: "dup_stream",
        why: "Reuse: most submissions short-circuit on an existing provider, so the median bypasses the solver and throughput is set by the residual solver rounds.",
        preset: Preset::Cluster(0.25),
        arrivals: 1500,
        zipf_theta: 2.0,
        node_budget: 100,
        warm: true,
        script: Script::Stream,
        lp_probe: false,
        fixed_per_20s: 5,
    },
    WorkloadDef {
        name: "churn_storm",
        why: "Lifecycle: removal, re-fixing, compaction, replanning and the storm ladder run through the same model, cache and LP layers as fresh admission.",
        preset: Preset::Sim(0.07),
        arrivals: 50 + 150,
        zipf_theta: 1.0,
        node_budget: 15,
        warm: true,
        script: Script::Churn {
            prefill: 50,
            storm_every: 10,
            storm_nodes: 150,
        },
        lp_probe: false,
        fixed_per_20s: 8,
    },
];

/// Not a workload: the instance shape of `benches/incremental.rs` (and of
/// `saturated_retry`, but for the node budget), which `--workload all` plays
/// once warm and once cold, untimed, to tie this benchmark to the committed
/// `BENCH_incremental.json`.
pub const ANCHOR: WorkloadDef = WorkloadDef {
    name: "anchor",
    why: "The instance of benches/incremental.rs at its node budget of 200.",
    node_budget: 200,
    lp_probe: false,
    fixed_per_20s: 1,
    ..WORKLOADS[0]
};

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 over `(seed, instance)`: instance seeds of one run are
/// unrelated, and runs with different `--seed` share no instance.
pub fn instance_seed(seed: u64, instance: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(instance + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WorkloadDef {
    /// The generator spec of one instance. `smoke` truncates the arrivals
    /// to a tenth (the unit-test / `--smoke` size).
    pub fn spec(&self, instance_seed: u64, smoke: bool) -> WorkloadSpec {
        let mut spec = match self.preset {
            Preset::Sim(scale) => WorkloadSpec::paper_sim(scale),
            Preset::Cluster(scale) => WorkloadSpec::paper_cluster(scale),
        };
        spec.queries = self.arrivals(smoke);
        spec.zipf_theta = self.zipf_theta;
        spec.seed = instance_seed;
        spec
    }

    pub fn arrivals(&self, smoke: bool) -> usize {
        match (smoke, self.script) {
            (false, _) => self.arrivals,
            // Keep enough prefill that removals find an admitted query and
            // enough rounds for one storm.
            (true, Script::Churn { storm_every, .. }) => self.prefill(true) + storm_every,
            (true, _) => (self.arrivals / 10).max(5),
        }
    }

    /// Arrivals submitted during set-up (`churn_storm` only).
    pub fn prefill(&self, smoke: bool) -> usize {
        match self.script {
            Script::Churn { prefill, .. } if smoke => (prefill / 5).max(2),
            Script::Churn { prefill, .. } => prefill,
            Script::Stream | Script::StreamWithRetry => 0,
        }
    }

    /// How many instances a run of `seconds` plays before it looks at the
    /// clock. The exact metrics (`admitted_share`,
    /// `resource_cost_per_admitted`, `storm_degraded_share`) are pooled over
    /// these alone, so they are a function of `(--seed, --seconds)` and not
    /// of how fast the machine or the planner is; instances the time box
    /// still has room for afterwards add timing samples only.
    pub fn fixed_instances(&self, seconds: f64, smoke: bool) -> usize {
        if smoke {
            return 1;
        }
        ((self.fixed_per_20s as f64 * seconds / 20.0) as usize).max(1)
    }

    pub fn generate(&self, instance_seed: u64, smoke: bool) -> Workload {
        generate(&self.spec(instance_seed, smoke))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::is_valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for w in &WORKLOADS {
            let a = w.generate(instance_seed(20629, 0), true);
            let b = w.generate(instance_seed(20629, 0), true);
            let c = w.generate(instance_seed(7, 0), true);
            let d = w.generate(instance_seed(20629, 1), true);
            assert_eq!(a.queries, b.queries, "{}", w.name);
            assert_ne!(a.queries, c.queries, "{}", w.name);
            assert_ne!(a.queries, d.queries, "{}", w.name);
            assert_eq!(a.queries.len(), w.arrivals(true));
        }
    }

    #[test]
    fn smoke_is_at_most_a_tenth() {
        for w in &WORKLOADS {
            assert_eq!(w.fixed_instances(20.0, true), 1);
            assert_eq!(w.fixed_instances(20.0, false), w.fixed_per_20s);
            assert_eq!(w.fixed_instances(0.5, false), 1);
            assert!(w.arrivals(true) * 10 <= w.arrivals, "{}", w.name);
            assert!(w.prefill(true) <= w.arrivals(true));
        }
    }
}
