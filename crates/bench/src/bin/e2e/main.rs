//! `e2e` — the repository's benchmark: five named workloads through the
//! real `SqprPlanner`, the end-to-end metrics a user of the planner sees,
//! and a staged per-layer trace. See `README.md` beside this file.
//!
//! ```text
//! e2e [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]]
//!     [--smoke] [--json PATH] [--spans PATH]
//! e2e --compare A.json B.json
//! ```
//!
//! The last line of standard output is the result object of the benchmark
//! contract (`correct`, `attempted`, `failed`, `metrics`). `--workload all`
//! re-executes this binary once per workload, one child at a time, so that
//! `peak_rss_mb` is per workload, and then plays the instance of
//! `benches/incremental.rs` warm and cold against its committed result. The exit code is non-zero when an
//! operation or a check failed, or when `--compare` finds a regression.

mod adapter;
mod compare;
mod drive;
mod metrics;
mod probe;
mod run;
mod staged;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{Report, RunOpts};
use workloads::WORKLOADS;

/// `WorkloadSpec::paper_sim`'s seed (`0x5095`).
const DEFAULT_SEED: u64 = 20629;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    opts: RunOpts,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        opts: RunOpts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            spans: None,
        },
        json: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name or `all`")?,
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.opts.seconds = s;
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is how the
            // benchmark contract passes it.
            "--trace" => {
                args.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.opts.smoke = true,
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--spans" => args.opts.spans = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two paths")?);
                let b = PathBuf::from(value("two paths")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && workloads::find(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{}` (one of: all, {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Every metric by name, with its unit and the samples it rests on.
fn print_report(report: &Report) {
    if let Some(def) = workloads::find(report.workload) {
        println!("-- {}", def.why);
    }
    println!(
        "== {} (seed {}, {} pass{}, the first {} fixed, {}) ==",
        report.workload,
        report.seed,
        report.passes,
        if report.passes == 1 { "" } else { "es" },
        report.fixed_passes,
        if report.trace {
            "traced"
        } else {
            "tracing off"
        },
    );
    for m in &report.metrics {
        match m.value {
            Some(v) => println!(
                "{:<16} {:<34} {:>16.6} {:<10} n={}",
                report.workload, m.def.name, v, m.def.unit, m.samples
            ),
            // No samples: the metric does not exist on this workload. Too
            // few: the percentile is withheld.
            None => println!(
                "{:<16} {:<34} {:>16} {:<10} n={}",
                report.workload,
                m.def.name,
                if m.samples == 0 { "n/a" } else { "withheld" },
                m.def.unit,
                m.samples
            ),
        }
    }
    for e in &report.errors {
        println!("{:<16} CHECK FAILED: {e}", report.workload);
    }
    if report.trace && !report.correct {
        println!(
            "{:<16} the per-layer numbers above are stale: a traced pass failed its checks",
            report.workload
        );
    }
}

fn append_line(path: &PathBuf, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

fn run_one(args: &Args) -> ExitCode {
    let Some(def) = workloads::find(&args.workload) else {
        return ExitCode::from(2);
    };
    let report = run::run_workload(def, &args.opts);
    print_report(&report);
    if let Some(path) = &args.json {
        if let Err(e) = append_line(path, &compare::record_line(&report)) {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", compare::result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload, one at a time.
fn run_all(argv: &[String], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    // The children get this invocation's arguments with `--workload`
    // replaced; everything else (seed, seconds, trace, json, …) carries over.
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(&rest)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(_) | Err(_) => failed.push(w.name),
        }
    }
    // Ties the run to the repository's committed timing history; see
    // `run::run_anchor`.
    if !args.opts.trace {
        match run::run_anchor(args.opts.seed, args.opts.smoke) {
            Ok(line) => println!("e2e: {line}"),
            Err(e) => {
                println!("e2e: CHECK FAILED: {e}");
                failed.push("anchor");
            }
        }
    }
    if failed.is_empty() {
        println!("e2e: all {} workloads passed", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        println!("e2e: FAILED workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| compare::read_records(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (read(a), read(b)) {
        (Ok(ra), Ok(rb)) => {
            let (table, regressed) = compare::compare(&ra, &rb);
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    if args.workload == "all" {
        run_all(&argv, &args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_invocation_and_the_short_forms() {
        let a = parse(&[
            "--workload",
            "dup_stream",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!((a.workload.as_str(), a.opts.seed), ("dup_stream", 7));
        assert!(!a.opts.trace && a.opts.seconds == 3.0);
        assert!(parse(&["--trace", "1"]).unwrap().opts.trace);
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert!(a.opts.trace && a.opts.smoke && a.workload == "all");
        assert_eq!(a.opts.seed, DEFAULT_SEED);
        assert!(parse(&["--compare", "a", "b"]).unwrap().compare.is_some());
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--compare", "a"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` at the repository root mirrors the tables in
    /// `metrics.rs` and `workloads.rs`.
    #[test]
    fn benchmark_json_matches_the_registries() {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let path = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        };
        let text = std::fs::read_to_string(path).unwrap();
        let json = compare::Json::parse(&text).unwrap();
        let list = |key: &str| match json.get(key) {
            Some(compare::Json::Arr(items)) => items.clone(),
            other => panic!("`{key}` is not a list: {other:?}"),
        };
        let text_of =
            |v: &compare::Json, k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(j, "name").as_deref(), Some(w.name));
            assert_eq!(text_of(j, "why").as_deref(), Some(w.why));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        for (j, m) in e2e.iter().zip(&metrics::END_TO_END) {
            assert_eq!(text_of(j, "name").as_deref(), Some(m.name));
            assert_eq!(text_of(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(text_of(j, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(j.get("bound").and_then(|b| b.as_f64()), m.bound);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        for (j, m) in layers.iter().zip(&metrics::PER_LAYER) {
            assert_eq!(text_of(j, "name").as_deref(), Some(m.name));
            assert_eq!(text_of(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(text_of(j, "better").as_deref(), Some(m.better.as_str()));
        }
        assert_eq!(
            json.get("run_seconds").and_then(|s| s.as_f64()),
            Some(DEFAULT_SECONDS)
        );
    }
}
