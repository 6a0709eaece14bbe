//! # sqpr-bench
//!
//! Figure/table reproduction harnesses for the SQPR evaluation (the
//! table-driven `figures` binary; see `src/bin/`), shared utilities, and
//! the ablation studies of the `ablations` binary. `benches/incremental.rs`
//! is the warm-vs-cold re-planning regression bench; `crates/bench/README.md`
//! maps every harness to the paper figure or contract it checks.

pub mod ablations;
pub mod cluster;
pub mod figures;
pub mod harness;
