//! # sqpr-dsps
//!
//! The distributed stream processing substrate for the SQPR reproduction:
//! hosts and network topology, streams with semantic equivalence signatures,
//! join operators, the interning catalog that makes cross-query reuse
//! discoverable, global deployment state with resource accounting and
//! causality checking, and a discrete-time execution engine standing in for
//! the paper's DISSP prototype.
//!
//! The deployment is the plan: a [`DeploymentState`] holds one assignment
//! of the decision variables `d, x, y, z` (paper §III-B), and
//! [`DeploymentState::validate`] is its one checker. The plan-tree
//! conditions C1–C4 of §III-A map onto its rules:
//!
//! - **C1** (the root delivers the query stream):
//!   [`DeployError::ProvidedUnavailable`] and [`DeployError::QueryUnserved`];
//! - **C2** (an operator has its inputs): [`DeployError::InputUnavailable`];
//! - **C3** (a relay forwards a stream it has):
//!   [`DeployError::FlowWithoutStream`];
//! - **C4** (base streams enter at their source): base streams are seeded
//!   only at their source host in [`DeploymentState::derive_availability`].
//!
//! ```
//! use sqpr_dsps::{Catalog, CostModel, DeploymentState, HostId, HostSpec};
//!
//! // Two hosts, one base stream each, one shared join.
//! let mut catalog = Catalog::uniform(2, HostSpec::new(50.0, 100.0), 1000.0,
//!                                    CostModel::default());
//! let a = catalog.add_base_stream(HostId(0), 10.0, 1);
//! let b = catalog.add_base_stream(HostId(1), 10.0, 2);
//! let join = catalog.intern_join_operator(a, b);
//! let result = catalog.operator(join).output;
//!
//! let mut state = DeploymentState::new();
//! state.add_flow(HostId(1), HostId(0), b);   // ship b to h0
//! state.add_placement(HostId(0), join);      // join at h0
//! state.set_provided(result, HostId(0));     // serve clients from h0
//! assert!(state.is_valid(&catalog));
//! ```

// Outside tests, the planner stack surfaces typed errors instead of
// panicking (`assert!` states caller contracts and stays), and an exact
// float comparison says why (ARCHITECTURE.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::sync::atomic::{AtomicU64, Ordering};

pub mod catalog;
pub mod cost;
pub mod deployment;
pub mod engine;
pub mod ids;
pub mod metrics;
pub mod operator;
pub mod stream;
pub mod topology;

pub use catalog::Catalog;
pub use cost::CostModel;
pub use deployment::{DeployError, DeploymentState, FailureAudit};
pub use engine::{run as run_engine, EngineConfig, SimReport};
pub use ids::{HostId, OperatorId, QueryId, StreamId};
pub use metrics::{Cdf, RateSketch};
pub use operator::OperatorDef;
pub use stream::{StreamDef, StreamSignature};
pub use topology::{HostSpec, NetworkTopology};

/// Source of [`DeploymentState::revision`] and [`Catalog::substrate_revision`]
/// values. Process-wide, so a value names one state of one lineage: clones
/// share it only while they are still equal in what it covers, and two
/// copies that diverged can never meet at the same value the way per-object
/// counters would. Values are only ever compared for equality.
static REVISION: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_revision() -> u64 {
    REVISION.fetch_add(1, Ordering::Relaxed)
}
