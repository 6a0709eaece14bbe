//! # sqpr-scenario
//!
//! The declarative scenario corpus: data-driven event scripts with
//! golden-file verdicts for the SQPR planner.
//!
//! Each scenario is a JSON file (`tests/scenarios/*.json` at the workspace
//! root, read by [`sqpr_workload::text::parse_json`] like the committed
//! bench files) describing a generated system, a timed event script —
//! query arrivals, rate drift and bursts fed through §IV-B adaptation,
//! host/link failures and restores driving recovery storms, removals,
//! admission retries — and an expectations block. The runner executes
//! every scenario on a warm planner, on two sliced twins of it (every
//! solve suspended and resumed every 1 and every 7 nodes, which must not
//! change a byte) and on a cold twin, asserts warm/cold agreement, diffs
//! the canonical verdict transcript against a committed golden file
//! (`SQPR_BLESS=1` re-blesses), and keeps one entry per scenario, keyed by
//! name, in the committed `BENCH_scenarios.json`.
//!
//! ```
//! use sqpr_scenario::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::parse(r#"{
//!     "name": "doc",
//!     "system": {"kind": "paper_cluster", "scale": 0.2, "queries": 3, "max_nodes": 40},
//!     "event": [{"kind": "submit", "count": 3}]
//! }"#).unwrap();
//! let run = run_scenario(&spec).unwrap();
//! assert!(run.transcript.starts_with("scenario doc\n"));
//! ```

// Outside tests, an exact float comparison says why (ARCHITECTURE.md §12).
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod runner;
pub mod spec;
pub mod verdict;

pub use runner::{check_scenario_file, discover, run_scenario, ScenarioRun};
pub use spec::{Event, Expectations, HostClass, ScenarioSpec, SpecError, SystemKind, SystemSpec};
pub use verdict::{first_diff, fmt_f64_bits, Transcript};
