//! # sqpr-baselines
//!
//! The three comparison planners of the SQPR evaluation (paper §V):
//!
//! - [`heuristic::HeuristicPlanner`] — the hand-crafted single-host planner
//!   with aggressive reuse and no re-planning;
//! - [`optimistic::OptimisticBound`] — the aggregate-host upper bound used
//!   to estimate SQPR's optimality gap;
//! - [`soda::SodaPlanner`] — SODA's macroQ/macroW/miniW pipeline with fixed
//!   user templates and gluing-based reuse.
//!
//! [`Planner`] unifies the submission interface across all planners
//! (including [`sqpr_core::SqprPlanner`]) so the experiment harnesses can
//! drive them interchangeably.

// Outside tests, an exact float comparison says why (ARCHITECTURE.md §12).
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod heuristic;
pub mod optimistic;
pub mod soda;
pub mod trees;

pub use heuristic::HeuristicPlanner;
pub use optimistic::OptimisticBound;
pub use soda::SodaPlanner;
pub use trees::{enumerate_trees, InternedTree, JoinTree};

use sqpr_dsps::StreamId;

/// Common submission interface for experiment harnesses.
pub trait Planner {
    /// Submits one k-way join query; returns whether it was admitted.
    fn submit_query(&mut self, bases: &[StreamId]) -> bool;
    /// Number of queries admitted so far.
    fn admitted(&self) -> usize;
    /// Planner name for report tables.
    fn name(&self) -> &'static str;
}

impl Planner for HeuristicPlanner {
    fn submit_query(&mut self, bases: &[StreamId]) -> bool {
        self.submit(bases)
    }
    fn admitted(&self) -> usize {
        self.num_admitted()
    }
    fn name(&self) -> &'static str {
        "heuristic"
    }
}

impl Planner for OptimisticBound {
    fn submit_query(&mut self, bases: &[StreamId]) -> bool {
        self.submit(bases)
    }
    fn admitted(&self) -> usize {
        self.num_admitted()
    }
    fn name(&self) -> &'static str {
        "optimistic"
    }
}

impl Planner for SodaPlanner {
    fn submit_query(&mut self, bases: &[StreamId]) -> bool {
        self.submit(bases)
    }
    fn admitted(&self) -> usize {
        self.num_admitted()
    }
    fn name(&self) -> &'static str {
        "soda"
    }
}

impl Planner for sqpr_core::SqprPlanner {
    fn submit_query(&mut self, bases: &[StreamId]) -> bool {
        self.submit(bases).map(|o| o.admitted).unwrap_or(false)
    }
    fn admitted(&self) -> usize {
        self.num_admitted()
    }
    fn name(&self) -> &'static str {
        "sqpr"
    }
}
