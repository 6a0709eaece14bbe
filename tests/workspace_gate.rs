//! Tier-1 runs what guards the shortcuts.
//!
//! `cargo test` at the workspace root builds the root package only, and the
//! warm path's exactness rests on equivalences the member crates test: a
//! cached LP lowering against a fresh one, a cacheless solve against a
//! fresh slot's, a suspended search against an uninterrupted one, the
//! skeleton's memoised passes against the full ones, the simplex's
//! maintained sets against the pivots they must not move. Their public-API
//! suites are compiled into this target as they stand, so the command a
//! contributor runs exercises slot-vs-fresh and shortcut-vs-full-pass too
//! (a few seconds; the suites' own seed counts). The crate-private halves —
//! the adjacency-driven rebuild, presolve on the slot's mirror, the
//! restricted point validation every search's candidates go through — stay
//! unit tests of `sqpr-milp`, under `cargo test --workspace`.
//!
//! The no-panic contract of the in-repo text reader rides along: the JSON
//! reader and the scenario decoder on seeded mutations of the committed
//! scenarios and of the workspace's sources, the reader alone on prefixes
//! and mutations of the committed bench files, which must also write back
//! byte for byte.
//! The lint gate is not here: it is CI's clippy step (ARCHITECTURE.md §12).

#[path = "../crates/lp/tests/proptest_simplex.rs"]
mod proptest_simplex;

#[path = "../crates/lp/tests/proptest_dual.rs"]
mod proptest_dual;

#[path = "../crates/lp/tests/pivot_trace.rs"]
mod pivot_trace;

#[path = "../crates/milp/tests/proptest_cache.rs"]
mod proptest_cache;

#[path = "../crates/milp/tests/proptest_preempt.rs"]
mod proptest_preempt;

#[path = "../crates/core/tests/proptest_incremental_model.rs"]
mod proptest_incremental_model;

#[path = "../crates/core/tests/deadline_admission.rs"]
mod deadline_admission;

#[path = "../crates/core/tests/failure_recovery.rs"]
mod failure_recovery;

#[path = "../crates/scenario/tests/hostile_inputs.rs"]
mod hostile_inputs;
