//! Property tests for the fault model: arbitrary interleavings of host
//! failures, link degradations and restores must round-trip the catalog
//! back to its *exact* nominal capacities (f64 equality, not tolerance)
//! once everything is restored, and must maintain the fault invariants
//! at every intermediate step.
//!
//! Implemented as seeded random-case loops (the sanctioned dependency set
//! has no `proptest`); every case prints its seed on failure so it can be
//! replayed deterministically.

use sqpr_dsps::{Catalog, CostModel, HostId, HostSpec, StreamId};
use sqpr_workload::rng::{Rng, StdRng};

fn build_catalog(hosts: usize) -> Catalog {
    // Deliberately awkward capacities: exact round-trips must preserve
    // bit patterns, not just "close enough" values.
    let mut c = Catalog::uniform(
        hosts,
        HostSpec::new(0.1 + 1.0 / 3.0, 10.0 / 7.0),
        100.0 / 3.0,
        CostModel::default(),
    );
    for i in 0..hosts * 2 {
        c.add_base_stream(HostId((i % hosts) as u32), 0.07 * (i + 1) as f64, i as u64);
    }
    c
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Fail(usize),
    RestoreHost(usize),
    Degrade(usize, usize, f64),
    RestoreLink(usize, usize),
}

fn random_op(rng: &mut StdRng, hosts: usize) -> Op {
    match rng.gen_index(4) {
        0 => Op::Fail(rng.gen_index(hosts)),
        1 => Op::RestoreHost(rng.gen_index(hosts)),
        2 => {
            let h = rng.gen_index(hosts);
            let m = (h + 1 + rng.gen_index(hosts - 1)) % hosts;
            Op::Degrade(h, m, rng.gen_f64() * 5.0)
        }
        _ => {
            let h = rng.gen_index(hosts);
            let m = (h + 1 + rng.gen_index(hosts - 1)) % hosts;
            Op::RestoreLink(h, m)
        }
    }
}

/// A naive shadow of the effective topology: what every directed link and
/// host spec *should* be after each fault-model call, maintained with the
/// documented semantics (fail darkens all touching links; restore_host on
/// a failed host returns them to nominal; link ops overwrite
/// unconditionally, even on links touching a failed host).
struct Shadow {
    failed: Vec<bool>,
    link: Vec<Vec<f64>>,
    nominal_link: Vec<Vec<f64>>,
}

impl Shadow {
    fn new(nominal: &Catalog, hosts: usize) -> Self {
        let nominal_link: Vec<Vec<f64>> = (0..hosts)
            .map(|h| {
                (0..hosts)
                    .map(|m| nominal.topology().link(HostId(h as u32), HostId(m as u32)))
                    .collect()
            })
            .collect();
        Shadow {
            failed: vec![false; hosts],
            link: nominal_link.clone(),
            nominal_link,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Fail(h) => {
                if !self.failed[h] {
                    self.failed[h] = true;
                    for m in 0..self.failed.len() {
                        if m != h {
                            self.link[h][m] = 0.0;
                            self.link[m][h] = 0.0;
                        }
                    }
                }
            }
            Op::RestoreHost(h) => {
                if self.failed[h] {
                    self.failed[h] = false;
                    for m in 0..self.failed.len() {
                        if m != h {
                            self.link[h][m] = self.nominal_link[h][m];
                            self.link[m][h] = self.nominal_link[m][h];
                        }
                    }
                }
            }
            Op::Degrade(h, m, cap) => self.link[h][m] = cap,
            Op::RestoreLink(h, m) => self.link[h][m] = self.nominal_link[h][m],
        }
    }
}

fn apply(c: &mut Catalog, op: Op) {
    match op {
        Op::Fail(h) => {
            c.fail_host(HostId(h as u32));
        }
        Op::RestoreHost(h) => {
            c.restore_host(HostId(h as u32));
        }
        Op::Degrade(h, m, cap) => {
            c.degrade_link(HostId(h as u32), HostId(m as u32), cap);
        }
        Op::RestoreLink(h, m) => {
            c.restore_link(HostId(h as u32), HostId(m as u32));
        }
    }
}

/// The mid-flight invariants: failed hosts are fully dark on the host
/// spec, live hosts keep their nominal specs, and every directed link
/// exactly matches the shadow model.
fn check_fault_invariants(c: &Catalog, nominal: &Catalog, shadow: &Shadow, seed: u64) {
    for h in c.hosts() {
        assert_eq!(
            c.is_host_failed(h),
            shadow.failed[h.index()],
            "seed {seed}: {h}"
        );
        if c.is_host_failed(h) {
            assert_eq!(
                c.host(h).cpu_capacity,
                0.0,
                "seed {seed}: failed {h} has CPU"
            );
            assert_eq!(c.host(h).bandwidth_out, 0.0, "seed {seed}");
            assert_eq!(c.host(h).bandwidth_in, 0.0, "seed {seed}");
        } else {
            assert_eq!(c.host(h), nominal.host(h), "seed {seed}: live {h} drifted");
        }
        for m in c.hosts() {
            if h != m {
                let got = c.topology().link(h, m);
                let want = shadow.link[h.index()][m.index()];
                assert!(
                    got == want,
                    "seed {seed}: link {h}->{m} is {got}, shadow says {want}"
                );
            }
        }
    }
}

/// Restores everything: hosts first (which resets their links to nominal),
/// then every directed link (clearing independent degradations).
fn restore_all(c: &mut Catalog) {
    let hosts: Vec<HostId> = c.hosts().collect();
    for &h in &hosts {
        c.restore_host(h);
    }
    for &h in &hosts {
        for &m in &hosts {
            if h != m {
                c.restore_link(h, m);
            }
        }
    }
}

fn assert_exactly_nominal(c: &Catalog, nominal: &Catalog, seed: u64) {
    assert_eq!(
        c.failed_hosts().count(),
        0,
        "seed {seed}: hosts still failed"
    );
    for h in c.hosts() {
        assert_eq!(
            c.host(h),
            nominal.host(h),
            "seed {seed}: host {h} not nominal"
        );
        for m in c.hosts() {
            let got = c.topology().link(h, m);
            let want = nominal.topology().link(h, m);
            // Exact f64 round-trip; infinities compare equal to themselves.
            assert!(
                got == want || (got.is_infinite() && want.is_infinite()),
                "seed {seed}: link {h}->{m} is {got}, nominal {want}"
            );
        }
    }
}

#[test]
fn arbitrary_interleavings_round_trip_to_nominal() {
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0xFA17 ^ seed);
        let hosts = rng.gen_index(4) + 2;
        let nominal = build_catalog(hosts);
        let mut c = build_catalog(hosts);
        let mut shadow = Shadow::new(&nominal, hosts);
        for _ in 0..rng.gen_index(40) + 5 {
            let op = random_op(&mut rng, hosts);
            apply(&mut c, op);
            shadow.apply(op);
            check_fault_invariants(&c, &nominal, &shadow, seed);
        }
        restore_all(&mut c);
        assert_exactly_nominal(&c, &nominal, seed);
    }
}

#[test]
fn fail_degrade_restore_order_does_not_matter_for_the_end_state() {
    // The same multiset of faults applied in random orders must land on
    // the same effective capacities once fully restored — and two
    // *different* full-restoration orders agree too.
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x0DE8 ^ seed);
        let hosts = 4;
        let ops: Vec<Op> = (0..12).map(|_| random_op(&mut rng, hosts)).collect();
        let mut a = build_catalog(hosts);
        let mut b = build_catalog(hosts);
        for &op in &ops {
            apply(&mut a, op);
        }
        for &op in ops.iter().rev() {
            apply(&mut b, op);
        }
        restore_all(&mut a);
        // Reversed restoration order: links first, hosts second, links
        // again (restore_host resets the failed hosts' links anyway).
        let all: Vec<HostId> = b.hosts().collect();
        for &h in &all {
            for &m in &all {
                if h != m {
                    b.restore_link(h, m);
                }
            }
        }
        for &h in &all {
            b.restore_host(h);
        }
        let nominal = build_catalog(hosts);
        assert_exactly_nominal(&a, &nominal, seed);
        assert_exactly_nominal(&b, &nominal, seed);
    }
}

#[test]
fn failure_is_idempotent_and_flagged() {
    let mut c = build_catalog(3);
    assert!(c.fail_host(HostId(1)), "first failure reports the edge");
    assert!(!c.fail_host(HostId(1)), "second failure is a no-op");
    assert!(c.is_host_failed(HostId(1)));
    assert_eq!(c.failed_hosts().collect::<Vec<_>>(), vec![HostId(1)]);
    assert!(c.restore_host(HostId(1)));
    assert!(!c.restore_host(HostId(1)), "double restore is a no-op");
    assert_exactly_nominal(&c, &build_catalog(3), u64::MAX);
}

#[test]
fn degrade_then_fail_then_restore_host_clears_the_degradation() {
    // restore_host is documented to restore the *nominal* topology around
    // the host, wiping independent degradations on its links.
    let mut c = build_catalog(3);
    let (h0, h1) = (HostId(0), HostId(1));
    c.degrade_link(h0, h1, 0.25);
    c.fail_host(h1);
    assert_eq!(c.topology().link(h0, h1), 0.0);
    c.restore_host(h1);
    assert_eq!(
        c.topology().link(h0, h1),
        c.topology().nominal_link(h0, h1),
        "restore_host returns the link to nominal, not to the degraded value"
    );
}

#[test]
fn orphaned_sources_rehome_and_return() {
    // Failing a host orphans its base streams; rehoming moves them to
    // survivors; restoring the host does NOT move them back (feeds stay
    // where they reconnected) — but a second rehome pass is a no-op.
    let mut c = build_catalog(3);
    let orphans: Vec<StreamId> = c.base_streams_at(HostId(2)).to_vec();
    assert!(!orphans.is_empty());
    c.fail_host(HostId(2));
    let moves = c.rehome_orphaned_sources();
    assert_eq!(moves.len(), orphans.len());
    for (s, from, to) in &moves {
        assert_eq!(*from, HostId(2));
        assert!(!c.is_host_failed(*to));
        assert_eq!(c.source_host(*s), Some(*to));
    }
    c.restore_host(HostId(2));
    assert!(
        c.rehome_orphaned_sources().is_empty(),
        "nothing orphaned now"
    );
    assert!(
        c.base_streams_at(HostId(2)).is_empty(),
        "feeds stay rehomed"
    );
}
