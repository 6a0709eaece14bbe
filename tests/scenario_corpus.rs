//! The scenario-corpus runner: executes every declarative scenario under
//! `tests/scenarios/*.toml` on a warm planner, two sliced twins (quantum 1
//! and 7, byte-identical to the warm run) and a cold twin, checks warm/cold
//! agreement and the scenarios' own expectations, diffs each canonical
//! verdict transcript against its committed golden file, and verifies
//! each scenario's entry in the committed `BENCH_scenarios.json`.
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
    let bench = root.join("BENCH_scenarios.json");
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
    // Every entry of the combined bench file belongs to a corpus scenario.
    let committed = std::fs::read_to_string(&bench).unwrap_or_default();
    for name in committed
        .lines()
        .filter_map(|l| l.strip_prefix("  \"")?.strip_suffix("\": {"))
    {
        if !files
            .iter()
            .any(|f| f.file_stem().is_some_and(|s| s == name))
        {
            failures.push(format!("BENCH_scenarios.json: stale entry `{name}`"));
        }
    }
    assert!(
        failures.is_empty(),
        "scenario corpus failures:\n{}",
        failures.join("\n")
    );
}
