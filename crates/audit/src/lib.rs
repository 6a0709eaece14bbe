//! `sqpr-audit` — an in-repo determinism & no-panic lint pass.
//!
//! The SQPR reproduction's headline claims rest on invariants no ordinary
//! test can pin forever: bit-for-bit determinism (warm≡cold,
//! preempted≡uninterrupted), a panic-free admission path, and accumulator
//! structs whose merges never silently drop a counter. This crate audits
//! the *source* for the coding patterns that historically broke those
//! invariants, using a dependency-free comment/string-aware Rust lexer and
//! a small rule engine with per-site waivers:
//!
//! ```text
//! // sqpr::allow(<rule>): <reason>
//! ```
//!
//! A waiver's reason is mandatory, it attaches to the same line or the next
//! code line (stacked waivers share the next code line), and an unused or
//! malformed waiver is itself an error — waivers cannot rot silently.
//!
//! Run it as a binary (`cargo run -p sqpr-audit -- --check .`) or through
//! the root `tests/audit_gate.rs` integration test, which makes a dirty
//! workspace fail `cargo test`.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{audit_source, audit_workspace, AuditReport, SourceFile, Violation, Waiver};
pub use lexer::{lex, TokKind, Token};
pub use rules::{registry, Rule};
