//! Streams and their equivalence signatures (paper §II-A, §II-C).
//!
//! Two streams are equivalent — and therefore *reusable* across queries — if
//! they are "produced by the same operators using the same input streams".
//! We lift this to join commutativity: a join result is identified by the
//! *set* of base streams it combines, so every join tree over the same base
//! set yields one interned stream (exactly the sharing the paper's Fig. 2
//! exploits). Every operator is a join, so a stream is either a base
//! stream or a join result. Which hosts hold a stream, and how it got
//! there, is the deployment's business: [`crate::DeploymentState`] is the
//! plan, and [`crate::DeploymentState::validate`] checks the paper's plan
//! conditions C1–C4 on it (mapped rule by rule in the crate docs).

use crate::ids::StreamId;
use std::collections::BTreeSet;

/// Canonical identity of a stream, used for interning in the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamSignature {
    /// An externally injected base stream, identified by a source tag.
    Base { source: u64 },
    /// The join of a set of *base* streams (order independent).
    ///
    /// `tag` is 0 for shared (reusable) streams; the reuse-off ablation
    /// registers per-query private copies with a nonzero tag so that
    /// otherwise-equivalent streams do not unify.
    Join { bases: BTreeSet<StreamId>, tag: u64 },
}

impl StreamSignature {
    pub fn is_base(&self) -> bool {
        matches!(self, StreamSignature::Base { .. })
    }
}

/// A registered stream: identity plus its (estimated) average data rate
/// `̺_s` (paper assumes constant average rates with small variance).
#[derive(Debug, Clone)]
pub struct StreamDef {
    pub id: StreamId,
    pub signature: StreamSignature,
    /// Average data rate in bandwidth units (e.g. Mbps).
    pub rate: f64,
}

impl StreamDef {
    pub fn is_base(&self) -> bool {
        self.signature.is_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_signature_is_order_independent() {
        let a: BTreeSet<StreamId> = [StreamId(2), StreamId(0), StreamId(1)]
            .into_iter()
            .collect();
        let b: BTreeSet<StreamId> = [StreamId(1), StreamId(2), StreamId(0)]
            .into_iter()
            .collect();
        assert_eq!(
            StreamSignature::Join { bases: a, tag: 0 },
            StreamSignature::Join { bases: b, tag: 0 }
        );
    }

    #[test]
    fn base_detection() {
        assert!(StreamSignature::Base { source: 9 }.is_base());
        assert!(!StreamSignature::Join {
            bases: BTreeSet::new(),
            tag: 0
        }
        .is_base());
        let a: BTreeSet<StreamId> = [StreamId(0)].into_iter().collect();
        assert_ne!(
            StreamSignature::Join {
                bases: a.clone(),
                tag: 0
            },
            StreamSignature::Join { bases: a, tag: 1 },
            "private tags must not unify"
        );
    }
}
