//! Hosts and the network topology (paper §II-B resource model).
//!
//! Three resource classes: per-host computational capacity `ζ_h`, per-host
//! outgoing bandwidth `β_h` (we also track incoming bandwidth for constraint
//! III.6b), and pairwise link bandwidth `κ_hm`. Memory is wired as an
//! optional fourth resource (listed as future work in §VII).

use crate::ids::HostId;

/// Static description of one host's resources.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Computational capacity `ζ_h` (e.g. normalised cores).
    pub cpu_capacity: f64,
    /// Maximum outgoing bandwidth `β_h`.
    pub bandwidth_out: f64,
    /// Maximum incoming bandwidth (paper III.6b uses `β_m` for both sides).
    pub bandwidth_in: f64,
    /// Optional memory capacity; `f64::INFINITY` disables the constraint.
    pub memory_capacity: f64,
}

impl HostSpec {
    /// A host with symmetric in/out bandwidth and unbounded memory.
    pub fn new(cpu_capacity: f64, bandwidth: f64) -> Self {
        HostSpec {
            cpu_capacity,
            bandwidth_out: bandwidth,
            bandwidth_in: bandwidth,
            memory_capacity: f64::INFINITY,
        }
    }
}

/// Pairwise link capacities `κ_hm`. Self-links are infinite (local delivery
/// is free).
///
/// The topology distinguishes *configured* capacities (set at construction
/// or via [`Self::set_link`]) from the *effective* ones returned by
/// [`Self::link`]: failures ([`Self::fail_host`]) and degradations
/// ([`Self::degrade_link`]) lower the effective capacity without touching
/// the configured value, and the matching `restore_*` calls bring the
/// effective capacity back to it.
#[derive(Debug, Clone)]
pub struct NetworkTopology {
    n: usize,
    link: Vec<f64>,
    /// Configured (pre-fault) capacities; `restore_*` copies from here.
    nominal: Vec<f64>,
}

impl NetworkTopology {
    /// Full mesh with uniform capacity on every ordered pair.
    pub fn full_mesh(n: usize, capacity: f64) -> Self {
        let mut link = vec![capacity; n * n];
        for h in 0..n {
            link[h * n + h] = f64::INFINITY;
        }
        NetworkTopology {
            n,
            nominal: link.clone(),
            link,
        }
    }

    pub fn num_hosts(&self) -> usize {
        self.n
    }

    /// Effective capacity of the directed link `h -> m` (0 after a failure
    /// of either endpoint, the degraded value after [`Self::degrade_link`]).
    #[inline]
    pub fn link(&self, h: HostId, m: HostId) -> f64 {
        self.link[h.index() * self.n + m.index()]
    }

    /// Configured (pre-fault) capacity of the directed link `h -> m`.
    #[inline]
    pub fn nominal_link(&self, h: HostId, m: HostId) -> f64 {
        self.nominal[h.index() * self.n + m.index()]
    }

    /// Sets the configured capacity of the directed link `h -> m` (also
    /// resets any degradation on it).
    pub fn set_link(&mut self, h: HostId, m: HostId, capacity: f64) {
        assert!(h != m, "self links are always infinite");
        self.link[h.index() * self.n + m.index()] = capacity;
        self.nominal[h.index() * self.n + m.index()] = capacity;
    }

    // ----- fault model ----------------------------------------------------

    /// Fails host `h`: every directed link into or out of it drops to zero
    /// effective capacity. Self-links stay infinite (they are never
    /// consulted — a failed host has no CPU to run anything locally).
    pub fn fail_host(&mut self, h: HostId) {
        for m in 0..self.n {
            if m != h.index() {
                self.link[h.index() * self.n + m] = 0.0;
                self.link[m * self.n + h.index()] = 0.0;
            }
        }
    }

    /// Restores every link touching `h` to its configured capacity. Note
    /// this also clears any independent [`Self::degrade_link`] on those
    /// links — restoration is to the nominal topology.
    pub fn restore_host(&mut self, h: HostId) {
        for m in 0..self.n {
            if m != h.index() {
                self.link[h.index() * self.n + m] = self.nominal[h.index() * self.n + m];
                self.link[m * self.n + h.index()] = self.nominal[m * self.n + h.index()];
            }
        }
    }

    /// Degrades the directed link `h -> m` to the given effective capacity
    /// (partial failure); the configured capacity is untouched.
    ///
    /// # Panics
    /// Panics on a self link or a capacity that is not `>= 0` (NaN
    /// included; `+∞` is accepted).
    pub fn degrade_link(&mut self, h: HostId, m: HostId, capacity: f64) {
        assert!(h != m, "self links are always infinite");
        assert!(
            capacity >= 0.0,
            "link capacity must be non-negative, got {capacity}"
        );
        self.link[h.index() * self.n + m.index()] = capacity;
    }

    /// Restores the directed link `h -> m` to its configured capacity.
    pub fn restore_link(&mut self, h: HostId, m: HostId) {
        assert!(h != m, "self links are always infinite");
        self.link[h.index() * self.n + m.index()] = self.nominal[h.index() * self.n + m.index()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_links() {
        let t = NetworkTopology::full_mesh(3, 100.0);
        assert_eq!(t.link(HostId(0), HostId(1)), 100.0);
        assert_eq!(t.link(HostId(2), HostId(0)), 100.0);
        assert!(t.link(HostId(1), HostId(1)).is_infinite());
    }

    #[test]
    fn set_link_is_directional() {
        let mut t = NetworkTopology::full_mesh(2, 10.0);
        t.set_link(HostId(0), HostId(1), 5.0);
        assert_eq!(t.link(HostId(0), HostId(1)), 5.0);
        assert_eq!(t.link(HostId(1), HostId(0)), 10.0);
    }

    #[test]
    #[should_panic(expected = "self links")]
    fn rejects_self_link_updates() {
        let mut t = NetworkTopology::full_mesh(2, 10.0);
        t.set_link(HostId(0), HostId(0), 5.0);
    }

    #[test]
    fn fail_and_restore_host_round_trips() {
        let mut t = NetworkTopology::full_mesh(3, 100.0);
        t.set_link(HostId(0), HostId(1), 40.0);
        t.fail_host(HostId(1));
        assert_eq!(t.link(HostId(0), HostId(1)), 0.0);
        assert_eq!(t.link(HostId(1), HostId(2)), 0.0);
        assert_eq!(t.link(HostId(2), HostId(1)), 0.0);
        assert_eq!(t.link(HostId(0), HostId(2)), 100.0, "untouched pair");
        assert!(t.link(HostId(1), HostId(1)).is_infinite());
        t.restore_host(HostId(1));
        assert_eq!(t.link(HostId(0), HostId(1)), 40.0, "configured value");
        assert_eq!(t.link(HostId(1), HostId(2)), 100.0);
    }

    #[test]
    fn degrade_and_restore_link() {
        let mut t = NetworkTopology::full_mesh(2, 10.0);
        t.degrade_link(HostId(0), HostId(1), 2.5);
        assert_eq!(t.link(HostId(0), HostId(1)), 2.5);
        assert_eq!(t.nominal_link(HostId(0), HostId(1)), 10.0);
        assert_eq!(t.link(HostId(1), HostId(0)), 10.0, "directional");
        t.restore_link(HostId(0), HostId(1));
        assert_eq!(t.link(HostId(0), HostId(1)), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_nan_link_degradation() {
        let mut t = NetworkTopology::full_mesh(2, 10.0);
        t.degrade_link(HostId(0), HostId(1), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_link_degradation() {
        let mut t = NetworkTopology::full_mesh(2, 10.0);
        t.degrade_link(HostId(0), HostId(1), -1.0);
    }

    #[test]
    fn host_spec_symmetric_constructor() {
        let h = HostSpec::new(4.0, 1000.0);
        assert_eq!(h.bandwidth_in, 1000.0);
        assert_eq!(h.bandwidth_out, 1000.0);
        assert!(h.memory_capacity.is_infinite());
    }
}
