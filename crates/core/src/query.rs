//! Query registration and plan-space computation (paper §IV-A).
//!
//! A submitted query is a k-way join over base streams. Registering it
//! interns *every* abstract join tree into the catalog: all join-result
//! streams over subsets of the base set, and all binary join operators that
//! can produce them. The MILP then chooses which operators to actually run —
//! this is how SQPR "dynamically changes the query plan" (§V-B) instead of
//! being locked to one user template like SODA.
//!
//! `S(q)` (streams that can appear in plans for `q`) and `O(q)` (operators
//! that can appear) are exactly the interned sets plus the base streams;
//! the §IV-A problem reduction fixes every variable outside them.

use std::collections::BTreeSet;

use sqpr_dsps::{Catalog, OperatorId, QueryId, StreamId};

/// A registered query: its base-stream set and the interned result stream.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub id: QueryId,
    pub bases: BTreeSet<StreamId>,
    /// The demanded (result) stream — shared across queries over the same
    /// base set when reuse is on.
    pub result: StreamId,
}

/// The plan space of a query: `S(q)` and `O(q)`.
#[derive(Debug, Clone, Default)]
pub struct PlanSpace {
    pub streams: Vec<StreamId>,
    pub operators: Vec<OperatorId>,
}

impl PlanSpace {
    pub fn contains_stream(&self, s: StreamId) -> bool {
        self.streams.contains(&s)
    }

    /// Merges another plan space in (used for batched submission, Fig 4b).
    /// `merge_unions_every_component` builds its operands as exhaustive
    /// literals: a new component does not compile there until the test sets
    /// it, and then fails the test until this merge carries it.
    pub fn merge(&mut self, other: &PlanSpace) {
        let PlanSpace { streams, operators } = other;
        for &s in streams {
            if !self.streams.contains(&s) {
                self.streams.push(s);
            }
        }
        for &o in operators {
            if !self.operators.contains(&o) {
                self.operators.push(o);
            }
        }
    }
}

/// Registers a k-way join query: interns all subset streams and all binary
/// join operators over them. With `reuse_tag = 0` equivalent sub-queries
/// unify across queries; a nonzero tag creates a private copy (reuse-off
/// ablation).
///
/// Returns the query spec and its plan space.
///
/// # Panics
/// Panics if `bases` has fewer than 2 streams or contains composites.
pub fn register_join_query(
    catalog: &mut Catalog,
    id: QueryId,
    bases: &[StreamId],
    reuse_tag: u64,
) -> (QuerySpec, PlanSpace) {
    let base_set: BTreeSet<StreamId> = bases.iter().copied().collect();
    assert!(base_set.len() >= 2, "a join query needs >= 2 base streams");

    let mut space = PlanSpace::default();
    space.streams.extend(base_set.iter().copied());

    // Enumerate all subsets of size >= 2 in increasing-size order so that
    // operator inputs are already interned when needed.
    let base_vec: Vec<StreamId> = base_set.iter().copied().collect();
    let k = base_vec.len();
    let mut subsets_by_size: Vec<Vec<u32>> = vec![Vec::new(); k + 1];
    for mask in 1u32..(1 << k) {
        let size = mask.count_ones() as usize;
        if size >= 2 {
            subsets_by_size[size].push(mask);
        }
    }

    // Stream id per subset mask (masks of size 1 map to the base stream).
    let stream_of_mask = |catalog: &mut Catalog, mask: u32| -> StreamId {
        if mask.count_ones() == 1 {
            base_vec[mask.trailing_zeros() as usize]
        } else {
            let subset: BTreeSet<StreamId> = (0..k)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| base_vec[i])
                .collect();
            catalog.intern_join_stream_tagged(&subset, reuse_tag)
        }
    };

    for size_masks in subsets_by_size.iter().skip(2) {
        for &mask in size_masks {
            let out = stream_of_mask(catalog, mask);
            if !space.streams.contains(&out) {
                space.streams.push(out);
            }
            // All binary partitions of `mask` into two non-empty halves.
            // Iterate proper non-empty submasks; take each unordered pair
            // once by requiring the submask to contain the lowest set bit.
            let low = mask & mask.wrapping_neg();
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                if sub & low != 0 {
                    let left = stream_of_mask(catalog, sub);
                    let right = stream_of_mask(catalog, mask ^ sub);
                    let op = catalog.intern_join_operator_tagged(left, right, reuse_tag);
                    if !space.operators.contains(&op) {
                        space.operators.push(op);
                    }
                }
                sub = (sub - 1) & mask;
            }
        }
    }

    let result = stream_of_mask(catalog, (1 << k) - 1);
    (
        QuerySpec {
            id,
            bases: base_set,
            result,
        },
        space,
    )
}

/// The full catalog as a plan space (reduction-off ablation).
pub fn full_space(catalog: &Catalog) -> PlanSpace {
    PlanSpace {
        streams: catalog.streams().map(|s| s.id).collect(),
        operators: catalog.operators().map(|o| o.id).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpr_dsps::{CostModel, HostId, HostSpec};

    fn catalog() -> (Catalog, Vec<StreamId>) {
        let mut c = Catalog::uniform(2, HostSpec::new(100.0, 100.0), 1000.0, CostModel::default());
        let bases: Vec<StreamId> = (0..5)
            .map(|i| c.add_base_stream(HostId((i % 2) as u32), 10.0, i as u64))
            .collect();
        (c, bases)
    }

    #[test]
    fn two_way_join_space() {
        let (mut c, b) = catalog();
        let (q, space) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
        // Streams: 2 bases + 1 join; operators: 1.
        assert_eq!(space.streams.len(), 3);
        assert_eq!(space.operators.len(), 1);
        assert!(space.contains_stream(q.result));
    }

    #[test]
    fn four_way_join_space_counts() {
        let (mut c, b) = catalog();
        let (_, space) = register_join_query(&mut c, QueryId(0), &b[..4], 0);
        // Composite streams: C(4,2)+C(4,3)+C(4,4) = 6+4+1 = 11; plus 4 bases.
        assert_eq!(space.streams.len(), 15);
        // Operators: 6*1 + 4*3 + 1*7 = 25.
        assert_eq!(space.operators.len(), 25);
    }

    #[test]
    fn overlapping_queries_share_plan_space() {
        let (mut c, b) = catalog();
        let (q1, s1) = register_join_query(&mut c, QueryId(0), &[b[0], b[1], b[2]], 0);
        let (q2, s2) = register_join_query(&mut c, QueryId(1), &[b[0], b[1], b[3]], 0);
        assert_ne!(q1.result, q2.result);
        // The {b0, b1} sub-join is shared.
        let shared: Vec<_> = s1
            .operators
            .iter()
            .filter(|o| s2.operators.contains(o))
            .collect();
        assert!(!shared.is_empty(), "sub-join must be shared");
    }

    #[test]
    fn identical_queries_share_result() {
        let (mut c, b) = catalog();
        let (q1, _) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
        let (q2, _) = register_join_query(&mut c, QueryId(1), &[b[1], b[0]], 0);
        assert_eq!(q1.result, q2.result, "commuted joins unify");
    }

    #[test]
    fn reuse_off_creates_private_copies() {
        let (mut c, b) = catalog();
        let (q1, _) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 1);
        let (q2, _) = register_join_query(&mut c, QueryId(1), &[b[0], b[1]], 2);
        assert_ne!(q1.result, q2.result, "private tags must not unify");
    }

    #[test]
    fn merge_unions_spaces() {
        let (mut c, b) = catalog();
        let (_, mut s1) = register_join_query(&mut c, QueryId(0), &[b[0], b[1]], 0);
        let (_, s2) = register_join_query(&mut c, QueryId(1), &[b[2], b[3]], 0);
        let n1 = s1.streams.len();
        s1.merge(&s2);
        assert_eq!(s1.streams.len(), n1 + 3); // 2 new bases + 1 new join
        let before = s1.streams.len();
        s1.merge(&s2); // idempotent
        assert_eq!(s1.streams.len(), before);
    }

    #[test]
    fn merge_unions_every_component() {
        // Exhaustive literals, no `..Default::default()`: a new component
        // does not compile here until the test sets and checks it.
        let mut a = PlanSpace {
            streams: vec![StreamId(1), StreamId(2)],
            operators: vec![OperatorId(1)],
        };
        let b = PlanSpace {
            streams: vec![StreamId(2), StreamId(3)],
            operators: vec![OperatorId(2), OperatorId(1)],
        };
        a.merge(&b);
        let PlanSpace { streams, operators } = a;
        assert_eq!(streams, vec![StreamId(1), StreamId(2), StreamId(3)]);
        assert_eq!(operators, vec![OperatorId(1), OperatorId(2)]);
    }

    #[test]
    #[should_panic(expected = ">= 2 base streams")]
    fn rejects_single_stream_queries() {
        let (mut c, b) = catalog();
        register_join_query(&mut c, QueryId(0), &[b[0]], 0);
    }
}
