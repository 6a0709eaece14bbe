//! Query workload generation (paper §V).
//!
//! "We randomly create 1,000 queries that consist in equal parts of
//! two-way, three-way and four-way joins over the base streams. Joins have
//! a selectivity in the range of 0.1%–0.5%. The base streams in a query are
//! chosen according to a Zipfian distribution with parameter 1."

use crate::rng::{Rng, StdRng};

use sqpr_dsps::{Catalog, CostModel, HostId, HostSpec, NetworkTopology, StreamId};

use crate::zipf::Zipf;

/// Parameters of one generated system + workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub hosts: usize,
    pub base_streams: usize,
    /// Average base stream rate (e.g. Mbps).
    pub base_rate: f64,
    /// Per-host CPU capacity.
    pub cpu_capacity: f64,
    /// Per-host in/out bandwidth.
    pub host_bandwidth: f64,
    /// Pairwise link capacity.
    pub link_capacity: f64,
    /// Join arities and their mixing weights.
    pub arities: Vec<(usize, f64)>,
    /// Zipf skew for base-stream choice (paper: 1.0).
    pub zipf_theta: f64,
    /// Pairwise selectivity range (paper: 0.001–0.005).
    pub selectivity: (f64, f64),
    /// Number of queries to generate.
    pub queries: usize,
    pub seed: u64,
}

impl WorkloadSpec {
    /// The §V-A simulation defaults, scaled by `scale` in `(0, 1]`:
    /// 50 hosts, 500 base streams of 10 Mbps, 1 Gbps links, equal-part
    /// 2/3/4-way joins, Zipf(1), 1000 queries.
    ///
    /// CPU capacity is set to make the environment jointly CPU- and
    /// bandwidth-constrained, as the paper tunes it.
    pub fn paper_sim(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        let hosts = ((50.0 * scale).round() as usize).max(3);
        let base_streams = ((500.0 * scale).round() as usize).max(6);
        let queries = ((1000.0 * scale).round() as usize).max(10);
        WorkloadSpec {
            hosts,
            base_streams,
            base_rate: 10.0,
            // ~8 joins of two 10 Mbps streams per host before saturation.
            cpu_capacity: 160.0,
            host_bandwidth: 1000.0,
            link_capacity: 1000.0,
            arities: vec![(2, 1.0), (3, 1.0), (4, 1.0)],
            zipf_theta: 1.0,
            selectivity: (0.001, 0.005),
            queries,
            seed: 0x5095,
        }
    }

    /// The §V-B cluster defaults, scaled: 15 hosts on a 10 Mbps LAN, 300
    /// base streams with 10 Kbps rates, 2- and 3-way joins, ~15 joins per
    /// host before CPU saturation.
    pub fn paper_cluster(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        let hosts = ((15.0 * scale).round() as usize).max(3);
        let base_streams = ((300.0 * scale).round() as usize).max(6);
        WorkloadSpec {
            hosts,
            base_streams,
            base_rate: 0.01, // 10 Kbps in Mbps units
            // Each host supports ~15 2-/3-way joins: a 2-way join over two
            // 0.01 Mbps streams costs 0.02 * cpu_per_rate; with
            // cpu_per_rate = 1 set capacity to 15 * ~0.05 (mix of 2/3-way).
            cpu_capacity: 0.6,
            host_bandwidth: 10.0,
            link_capacity: 10.0,
            arities: vec![(2, 1.0), (3, 1.0)],
            zipf_theta: 1.0,
            selectivity: (0.001, 0.005),
            queries: 250,
            seed: 0x50DA,
        }
    }
}

/// A generated workload: the system catalog plus the query arrival list.
#[derive(Debug, Clone)]
pub struct Workload {
    pub catalog: Catalog,
    pub bases: Vec<StreamId>,
    /// Base-stream sets per query, in arrival order.
    pub queries: Vec<Vec<StreamId>>,
}

/// Generates a system and workload from the spec (deterministic per seed).
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let host = HostSpec::new(spec.cpu_capacity, spec.host_bandwidth);
    generate_with_hosts(spec, &vec![host; spec.hosts])
}

/// Like [`generate`], but with an explicit per-host spec list — the
/// heterogeneous-cluster entry point (scenario corpus). `spec.hosts`,
/// `spec.cpu_capacity` and `spec.host_bandwidth` are ignored in favour of
/// `hosts`; stream placement, query sampling and selectivities follow the
/// same seeded draws as the uniform path, so a uniform `hosts` list
/// reproduces [`generate`] exactly.
///
/// # Panics
/// Panics if `hosts` is empty.
pub fn generate_with_hosts(spec: &WorkloadSpec, hosts: &[HostSpec]) -> Workload {
    assert!(!hosts.is_empty(), "a workload needs at least one host");
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Selectivities are drawn per pair lazily below; build the cost model
    // with the mid-range default first.
    let mid = (spec.selectivity.0 + spec.selectivity.1) / 2.0;
    let mut cost = CostModel::new(1.0, mid);

    let topology = NetworkTopology::full_mesh(hosts.len(), spec.link_capacity);

    // Base streams uniformly distributed over hosts (paper §V).
    let placements: Vec<HostId> = (0..spec.base_streams)
        .map(|_| HostId(rng.gen_index(hosts.len()) as u32))
        .collect();

    // Pre-draw pairwise selectivities for pairs that co-occur in queries.
    // (Doing it for all pairs of 500 streams would be 125k entries; we add
    // them on demand while generating queries.)
    let zipf = Zipf::new(spec.base_streams, spec.zipf_theta);
    let total_weight: f64 = spec.arities.iter().map(|(_, w)| w).sum();

    let mut query_indices: Vec<Vec<usize>> = Vec::with_capacity(spec.queries);
    for _ in 0..spec.queries {
        // Pick the arity by weight.
        let mut pick = rng.gen_f64() * total_weight;
        let mut arity = spec.arities[0].0;
        for &(a, w) in &spec.arities {
            if pick < w {
                arity = a;
                break;
            }
            pick -= w;
        }
        query_indices.push(zipf.sample_distinct(&mut rng, arity));
    }

    // Base stream ids are dense and assigned in registration order, so we
    // can pre-compute them, register pairwise selectivities on the cost
    // model, and only then build the catalog.
    let bases: Vec<StreamId> = (0..spec.base_streams).map(|i| StreamId(i as u32)).collect();
    for idx in &query_indices {
        for a in 0..idx.len() {
            for b in a + 1..idx.len() {
                let sa = bases[idx[a]];
                let sb = bases[idx[b]];
                let sigma = rng.gen_range_f64(spec.selectivity.0, spec.selectivity.1);
                // First draw wins so the pair is consistent across queries.
                #[expect(clippy::float_cmp, reason = "the default marks an undrawn pair")]
                let undrawn = cost.selectivity(sa, sb) == mid;
                if undrawn {
                    cost.set_selectivity(sa, sb, sigma);
                }
            }
        }
    }
    let mut catalog = Catalog::new(hosts.to_vec(), topology, cost);
    for (i, &h) in placements.iter().enumerate() {
        let s = catalog.add_base_stream(h, spec.base_rate, i as u64);
        debug_assert_eq!(s, bases[i], "base ids must be dense and in order");
    }

    let queries = query_indices
        .iter()
        .map(|idx| idx.iter().map(|&i| bases[i]).collect())
        .collect();
    Workload {
        catalog,
        bases,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            hosts: 4,
            base_streams: 20,
            base_rate: 10.0,
            cpu_capacity: 100.0,
            host_bandwidth: 100.0,
            link_capacity: 100.0,
            arities: vec![(2, 1.0), (3, 1.0)],
            zipf_theta: 1.0,
            selectivity: (0.001, 0.005),
            queries: 50,
            seed: 42,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let w = generate(&small_spec());
        assert_eq!(w.catalog.num_hosts(), 4);
        assert_eq!(w.bases.len(), 20);
        assert_eq!(w.queries.len(), 50);
        for q in &w.queries {
            assert!(q.len() == 2 || q.len() == 3);
            let set: std::collections::BTreeSet<_> = q.iter().collect();
            assert_eq!(set.len(), q.len(), "distinct bases per query");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_spec());
        let b = generate(&small_spec());
        assert_eq!(a.queries, b.queries);
        let mut spec = small_spec();
        spec.seed = 43;
        let c = generate(&spec);
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn zipf_skew_creates_overlap() {
        let mut spec = small_spec();
        spec.queries = 200;
        spec.zipf_theta = 1.5;
        let w = generate(&spec);
        // The most popular base stream should appear in many queries.
        let mut counts = vec![0usize; 20];
        for q in &w.queries {
            for s in q {
                counts[s.index()] += 1;
            }
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max > &(min + 20), "expected skew, got {counts:?}");
    }

    #[test]
    fn selectivities_in_range() {
        let w = generate(&small_spec());
        let cm = w.catalog.cost_model();
        for q in &w.queries {
            for i in 0..q.len() {
                for j in i + 1..q.len() {
                    let s = cm.selectivity(q[i], q[j]);
                    assert!((0.001..=0.005).contains(&s), "{s}");
                }
            }
        }
    }

    #[test]
    fn uniform_hosts_reproduce_the_uniform_path() {
        let spec = small_spec();
        let a = generate(&spec);
        let hosts = vec![HostSpec::new(spec.cpu_capacity, spec.host_bandwidth); spec.hosts];
        let b = generate_with_hosts(&spec, &hosts);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.bases, b.bases);
        for s in &a.bases {
            assert_eq!(a.catalog.source_host(*s), b.catalog.source_host(*s));
        }
    }

    #[test]
    fn heterogeneous_hosts_are_honoured() {
        let spec = small_spec();
        let hosts = vec![
            HostSpec::new(200.0, 500.0),
            HostSpec::new(50.0, 100.0),
            HostSpec::new(50.0, 100.0),
        ];
        let w = generate_with_hosts(&spec, &hosts);
        assert_eq!(w.catalog.num_hosts(), 3);
        assert_eq!(w.catalog.host(HostId(0)).cpu_capacity, 200.0);
        assert_eq!(w.catalog.host(HostId(2)).bandwidth_out, 100.0);
        // Placement draws index the real host count, not `spec.hosts`.
        for s in &w.bases {
            assert!(w.catalog.source_host(*s).unwrap().index() < 3);
        }
    }

    #[test]
    fn paper_specs_scale() {
        let sim = WorkloadSpec::paper_sim(0.2);
        assert_eq!(sim.hosts, 10);
        assert_eq!(sim.base_streams, 100);
        assert_eq!(sim.queries, 200);
        let full = WorkloadSpec::paper_sim(1.0);
        assert_eq!(full.hosts, 50);
        let cl = WorkloadSpec::paper_cluster(1.0);
        assert_eq!(cl.hosts, 15);
        assert_eq!(cl.base_streams, 300);
    }
}
