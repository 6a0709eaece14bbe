//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every harness prints a self-describing table: the paper figure it
//! regenerates, the (scaled) experiment parameters, and one row per x-value
//! with one column per series — the same rows/series the paper plots.

use sqpr_core::SolveBudget;
use sqpr_workload::text::{write_json, Layout, Table};

/// Scale factor for experiments: 1.0 = the paper's sizes. Read from CLI
/// argument `position` or the `SQPR_SCALE` environment variable; defaults
/// to a laptop-friendly fraction.
pub fn scale_arg(position: usize, default: f64) -> f64 {
    let arg = std::env::args().nth(position);
    let env = std::env::var("SQPR_SCALE").ok();
    [arg, env]
        .into_iter()
        .flatten()
        .find_map(|s| parse_scale(&s))
        .unwrap_or(default)
}

/// A scale value clamped into `[0.02, 1]`, or `None` when it is not a
/// finite number: garbage, `nan` and `inf` all fall back to the default.
fn parse_scale(s: &str) -> Option<f64> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(|v| v.clamp(0.02, 1.0))
}

/// Maps a paper-side CPLEX timeout (seconds) to our solver's budget. The
/// deterministic component is the branch & bound node budget; the wall
/// clock is scaled down 5x because the experiments themselves are scaled.
pub fn budget_for_timeout(paper_seconds: u64) -> SolveBudget {
    SolveBudget {
        max_nodes: (paper_seconds as usize) * 8,
        wall_clock_ms: Some(paper_seconds * 50),
    }
}

/// One plotted series: a label and `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Prints a figure as an aligned table: `x` column plus one column per
/// series, matching the paper's plotted lines.
pub fn print_figure(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.dedup();
    print!("{xlabel:>16}");
    for s in series {
        print!("  {:>18}", s.label);
    }
    println!();
    for &x in &xs {
        print!("{x:>16.2}");
        for s in series {
            match s.points.iter().find(|&&(px, _)| px == x) {
                Some(&(_, y)) => print!("  {y:>18.2}"),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Writes a machine-readable result file (`BENCH_<name>.json`, the compact
/// layout) next to the printed tables so successive runs can be diffed by
/// tooling. The target directory comes from `SQPR_BENCH_DIR` (default:
/// current directory). Returns the path written, or `None` on IO failure
/// (benches must not fail because a results directory is read-only).
pub fn emit_json(name: &str, payload: &Table) -> Option<std::path::PathBuf> {
    let dir = std::env::var("SQPR_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, write_json(payload, Layout::Compact)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_only_finite_numbers() {
        for (arg, want) in [
            ("nan", None),
            ("inf", None),
            ("-inf", None),
            ("abc", None),
            ("0.5", Some(0.5)),
            ("7", Some(1.0)),
        ] {
            assert_eq!(parse_scale(arg), want, "{arg}");
        }
    }

    #[test]
    fn budget_mapping_monotone() {
        let b5 = budget_for_timeout(5);
        let b30 = budget_for_timeout(30);
        let b60 = budget_for_timeout(60);
        assert!(b5.max_nodes < b30.max_nodes && b30.max_nodes < b60.max_nodes);
        assert!(b5.wall_clock_ms.unwrap() < b60.wall_clock_ms.unwrap());
    }

    #[test]
    fn series_printing_does_not_panic() {
        let mut s = Series::new("test");
        s.push(1.0, 2.0);
        s.push(2.0, 4.0);
        print_figure("t", "x", &[s]);
    }
}
