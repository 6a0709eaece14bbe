//! The scenario-corpus runner: executes every declarative scenario under
//! `tests/scenarios/*.toml` through the two-way drive (warm planner, cold
//! twin), checks warm/cold agreement and the scenarios' own expectations,
//! diffs each
//! canonical verdict transcript against its committed golden file, and
//! verifies the committed per-scenario `BENCH_scenario_<name>.json`.
//!
//! On golden drift the candidate transcripts land in
//! `target/scenario_verdicts/` (CI uploads that directory as an
//! artifact). Re-bless intentionally changed verdicts with:
//!
//! ```text
//! SQPR_BLESS=1 cargo test --test scenario_corpus
//! ```

use std::path::Path;

use sqpr_suite::scenario::{check_scenario_file, discover};

#[test]
fn scenario_corpus() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join("tests/scenarios");
    let golden = dir.join("golden");
    let bench = root.to_path_buf(); // BENCH_scenario_*.json live at the repo root
    let out = root.join("target/scenario_verdicts");

    let files = discover(&dir).expect("tests/scenarios must exist");
    assert!(
        files.len() >= 8,
        "the corpus must hold at least 8 scenarios, found {}",
        files.len()
    );

    let mut passed = Vec::new();
    let mut failures = Vec::new();
    for f in &files {
        match check_scenario_file(f, &golden, &bench, &out) {
            Ok(name) => passed.push(name),
            Err(errs) => failures.extend(errs),
        }
    }
    eprintln!(
        "scenario corpus: {}/{} passed ({})",
        passed.len(),
        files.len(),
        passed.join(", ")
    );
    assert!(
        failures.is_empty(),
        "scenario corpus failures:\n{}",
        failures.join("\n")
    );
}
