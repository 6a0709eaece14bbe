//! Deterministic fault-injection plans for failure-storm experiments.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of host failures and
//! link degradations: the same `(spec, seed)` pair always yields the same
//! plan, so storm benches and CI smoke jobs can assert bit-identical
//! recovery decisions across machines and reruns. Victims
//! are drawn without replacement from the host set with the workspace's
//! xoshiro256++ generator ([`crate::rng::StdRng`]) — no wall clock, no OS
//! entropy.

use crate::rng::{Rng, StdRng};

use sqpr_dsps::HostId;

/// Parameters of a fault plan.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Number of hosts in the system (victims are drawn from `0..hosts`).
    pub hosts: usize,
    /// Fraction of hosts to fail, in `[0, 1]` (rounded half-up; at least
    /// one host fails whenever the fraction is positive and `hosts > 0`).
    pub fail_fraction: f64,
    /// Fraction of surviving ordered host pairs whose links degrade.
    pub degrade_fraction: f64,
    /// Multiplier applied to a degraded link's capacity, in `[0, 1)`.
    pub degrade_factor: f64,
    /// PRNG seed; the plan is a pure function of the spec and this seed.
    pub seed: u64,
}

impl FaultSpec {
    /// A host-failure-only storm: fail `fail_fraction` of `hosts`.
    pub fn host_storm(hosts: usize, fail_fraction: f64, seed: u64) -> Self {
        FaultSpec {
            hosts,
            fail_fraction,
            degrade_fraction: 0.0,
            degrade_factor: 0.0,
            seed,
        }
    }
}

/// A reproducible fault schedule (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Hosts to fail, in injection order (a random permutation prefix, so
    /// injection order itself is part of the reproducible plan).
    pub failed_hosts: Vec<HostId>,
    /// Links to degrade: `(from, to, factor)` with both endpoints alive.
    pub degraded_links: Vec<(HostId, HostId, f64)>,
    /// The seed the plan was generated from (for report labels).
    pub seed: u64,
}

impl FaultPlan {
    /// Generates the plan for `spec`. Deterministic: equal specs yield
    /// equal plans.
    ///
    /// # Panics
    /// Panics if a fraction lies outside `[0, 1]` or `degrade_factor`
    /// outside `[0, 1)`.
    pub fn generate(spec: &FaultSpec) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&spec.fail_fraction),
            "fail_fraction outside [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&spec.degrade_fraction),
            "degrade_fraction outside [0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&spec.degrade_factor) || spec.degrade_fraction == 0.0,
            "degrade_factor outside [0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);

        // Partial Fisher-Yates: the first `nfail` slots of a seeded
        // permutation of the host ids.
        let mut pool: Vec<HostId> = (0..spec.hosts).map(HostId::from_index).collect();
        let nfail = if spec.fail_fraction > 0.0 && spec.hosts > 0 {
            (((spec.hosts as f64) * spec.fail_fraction).round() as usize).clamp(1, spec.hosts)
        } else {
            0
        };
        for i in 0..nfail {
            let j = i + rng.gen_index(pool.len() - i);
            pool.swap(i, j);
        }
        let failed_hosts: Vec<HostId> = pool[..nfail].to_vec();
        let survivors: Vec<HostId> = {
            let mut rest = pool[nfail..].to_vec();
            rest.sort();
            rest
        };

        // Degrade a sample of ordered survivor pairs (skip self-links).
        let mut degraded_links = Vec::new();
        if spec.degrade_fraction > 0.0 && survivors.len() > 1 {
            for &a in &survivors {
                for &b in &survivors {
                    if a != b && rng.gen_f64() < spec.degrade_fraction {
                        degraded_links.push((a, b, spec.degrade_factor));
                    }
                }
            }
        }

        FaultPlan {
            failed_hosts,
            degraded_links,
            seed: spec.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let spec = FaultSpec {
            hosts: 20,
            fail_fraction: 0.2,
            degrade_fraction: 0.1,
            degrade_factor: 0.5,
            seed: 99,
        };
        assert_eq!(FaultPlan::generate(&spec), FaultPlan::generate(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultPlan::generate(&FaultSpec {
                hosts: 50,
                fail_fraction: 0.3,
                degrade_fraction: 0.0,
                degrade_factor: 0.0,
                seed,
            })
        };
        assert_ne!(mk(1).failed_hosts, mk(2).failed_hosts);
    }

    #[test]
    fn victim_count_and_uniqueness() {
        let plan = FaultPlan::generate(&FaultSpec::host_storm(10, 0.2, 7));
        assert_eq!(plan.failed_hosts.len(), 2);
        let mut dedup = plan.failed_hosts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 2);
        assert!(plan.failed_hosts.iter().all(|h| h.index() < 10));
        assert!(plan.degraded_links.is_empty());
    }

    #[test]
    fn positive_fraction_fails_at_least_one_host() {
        let plan = FaultPlan::generate(&FaultSpec::host_storm(10, 0.01, 3));
        assert_eq!(plan.failed_hosts.len(), 1);
    }

    #[test]
    fn degraded_links_avoid_failed_endpoints() {
        let plan = FaultPlan::generate(&FaultSpec {
            hosts: 12,
            fail_fraction: 0.25,
            degrade_fraction: 0.5,
            degrade_factor: 0.25,
            seed: 11,
        });
        assert!(!plan.degraded_links.is_empty());
        for &(a, b, f) in &plan.degraded_links {
            assert!(a != b);
            assert!(!plan.failed_hosts.contains(&a));
            assert!(!plan.failed_hosts.contains(&b));
            assert_eq!(f, 0.25);
        }
    }
}
