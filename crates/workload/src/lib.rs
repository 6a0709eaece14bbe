//! # sqpr-workload
//!
//! Workload generation for the SQPR evaluation: the Zipf sampler used for
//! base-stream selection, the k-way join query generator with pairwise
//! selectivities, and presets matching the paper's §V-A simulation and
//! §V-B cluster setups (scalable for laptop runs). [`events`] adds the
//! deterministic rate-drift profiles scenario scripts replay, and [`text`]
//! reads the scenario files and reads and writes the bench JSON files.

// Outside tests, an exact float comparison says why (ARCHITECTURE.md §12).
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod events;
pub mod generator;
pub mod rng;
pub mod text;
pub mod zipf;

pub use events::{DriftSpec, RateProfile};
pub use generator::{generate, generate_with_hosts, Workload, WorkloadSpec};
pub use rng::{Rng, StdRng};
pub use zipf::Zipf;
