//! # sqpr-bench
//!
//! Figure/table reproduction harnesses for the SQPR evaluation (the
//! table-driven `figures` binary; see `src/bin/`), shared utilities, and
//! the ablation studies listed in DESIGN.md. Criterion micro-benchmarks for the solver stack
//! live in `benches/`.

pub mod ablations;
pub mod cluster;
pub mod figures;
pub mod harness;
pub mod timing;
