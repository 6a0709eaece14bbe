//! Hostile inputs for the in-repo text reader (`sqpr_workload::text`): the
//! JSON reader and the scenario decoder behind it must answer whatever they
//! are handed — every prefix of a real file, flipped bytes, spliced lines —
//! with `Ok` or `Err`, never a panic.
//!
//! The scenario inputs are seeded mutations of the committed
//! `tests/scenarios/*.json` files and of a sorted sample of the workspace's
//! Rust sources (garbage with plenty of quotes, brackets and escapes); the
//! bench inputs are prefixes and seeded mutations of the two committed
//! `BENCH_*.json` files, which must also read and write back byte for
//! byte. A failure names the file, the mutation and its seed.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use sqpr_scenario::{first_diff, ScenarioSpec};
use sqpr_workload::rng::{Rng, StdRng};
use sqpr_workload::text::{parse_json, write_json, Layout, Table, Value};

/// The workspace root: the nearest ancestor holding `tests/scenarios`
/// (this file is compiled from its own crate and from the root package).
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("tests/scenarios").is_dir() {
        assert!(dir.pop(), "no workspace root above the manifest");
    }
    dir
}

/// Files under `dir` with extension `ext`, recursively, sorted by path
/// (`target` directories skipped).
fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                out.extend(files(&path, ext));
            }
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
    out
}

/// The corpus: every scenario file whole, and every 12th Rust source of the
/// workspace (sorted by path) as a 2 KiB excerpt from a seeded backslash on
/// (a seeded line where the file has none), opened as a JSON string value:
/// escapes are where a string's end is easiest to get wrong, and a reader
/// stops at the first byte it cannot take, so bare source would mostly be
/// turned away at its first byte.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let root = workspace_root();
    let scenarios = files(&root.join("tests/scenarios"), "json");
    assert!(scenarios.len() >= 5, "scenario corpus not found");
    let mut sources: Vec<PathBuf> = ["src", "tests", "crates"]
        .iter()
        .flat_map(|d| files(&root.join(d), "rs"))
        .collect();
    sources.sort();
    assert!(sources.len() >= 60, "workspace sources not found");
    let mut rng = StdRng::seed_from_u64(0x5EED_F11E);
    let mut out = Vec::new();
    let name = |path: &Path| {
        path.strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string()
    };
    for path in &scenarios {
        let bytes = fs::read(path).expect("readable scenario");
        out.push((name(path), bytes));
    }
    for path in sources.iter().step_by(12) {
        let bytes = fs::read(path).expect("readable source");
        let mut starts = vec![0];
        let mut escapes = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'\n' if i + 1 < bytes.len() => starts.push(i + 1),
                b'\\' => escapes.push(i),
                _ => {}
            }
        }
        let pool = if escapes.is_empty() {
            &starts
        } else {
            &escapes
        };
        let from = pool[rng.gen_index(pool.len())];
        let to = (from + 2048).min(bytes.len());
        let mut input = br#"{"src": ""#.to_vec();
        input.extend(&bytes[from..to]);
        out.push((name(path), input));
    }
    out
}

/// Bytes the reader treats specially, for the flips to land on.
const SPECIAL: &[u8] = b"\"\\'#[]=,:.\n\r\t /*rb0e-+_{}u\xC3\xA9\xE2\x82\xAC";

/// One to four seeded byte flips of `src`.
fn flipped(src: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = src.to_vec();
    if out.is_empty() {
        return out;
    }
    for _ in 0..(1 + rng.gen_index(4)) {
        let at = rng.gen_index(out.len());
        out[at] = if rng.gen_bool() {
            SPECIAL[rng.gen_index(SPECIAL.len())]
        } else {
            rng.gen_index(256) as u8
        };
    }
    out
}

/// A seeded line splice of `src`: a block of lines moved, a line from
/// `donor` put in, two lines joined, or a line cut and its tail glued on
/// elsewhere.
fn spliced(src: &[u8], donor: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = src.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    let n = lines.len();
    match rng.gen_index(4) {
        0 => {
            let from = rng.gen_index(n);
            let len = 1 + rng.gen_index((n - from).min(6));
            let block: Vec<Vec<u8>> = lines.drain(from..from + len).collect();
            let to = rng.gen_index(lines.len() + 1);
            lines.splice(to..to, block);
        }
        1 => {
            let donated: Vec<&[u8]> = donor.split(|&b| b == b'\n').collect();
            let line = donated[rng.gen_index(donated.len())].to_vec();
            lines.insert(rng.gen_index(n + 1), line);
        }
        2 if n > 1 => {
            let at = rng.gen_index(n - 1);
            let next = lines.remove(at + 1);
            lines[at].extend(next);
        }
        _ => {
            let at = rng.gen_index(n);
            let cut = rng.gen_index(lines[at].len() + 1);
            let tail = lines[at].split_off(cut);
            let to = rng.gen_index(n);
            lines[to].extend(tail);
        }
    }
    lines.join(&b'\n')
}

/// The scenario decoder on one input, which goes through the JSON reader
/// first: an answer, no panic.
fn check(ctx: &str, bytes: &[u8]) {
    check_with(ctx, bytes, |src| {
        let _ = ScenarioSpec::parse(src);
    });
}

/// `read` on one input: an answer, no panic.
fn check_with(ctx: &str, bytes: &[u8], read: fn(&str)) {
    let src = String::from_utf8_lossy(bytes);
    let src: &str = &src;
    let outcome = catch_unwind(AssertUnwindSafe(|| read(src)));
    let tail: String = src
        .chars()
        .rev()
        .take(40)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    assert!(
        outcome.is_ok(),
        "{ctx}: the parser panicked on {} bytes ending {tail:?}",
        src.len()
    );
}

#[test]
fn every_prefix_of_every_input_parses_or_errs() {
    let mut inputs = 0usize;
    for (name, bytes) in corpus() {
        for cut in 0..=bytes.len() {
            check(&format!("{name}, prefix {cut}"), &bytes[..cut]);
            inputs += 1;
        }
    }
    assert!(inputs >= 20_000, "only {inputs} prefixes");
}

#[test]
fn flipped_bytes_and_spliced_lines_parse_or_err() {
    let corpus = corpus();
    let mut inputs = 0usize;
    for (k, (name, bytes)) in corpus.iter().enumerate() {
        let donor = &corpus[(k + 1) % corpus.len()].1;
        for seed in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 16));
            check(
                &format!("{name}, flip seed {seed}"),
                &flipped(bytes, &mut rng),
            );
            check(
                &format!("{name}, splice seed {seed}"),
                &spliced(bytes, donor, &mut rng),
            );
            inputs += 2;
        }
    }
    assert!(inputs >= 3_000, "only {inputs} mutations");
}

/// The committed bench files, each with the layout it is written in.
fn bench_files() -> Vec<(&'static str, String, Layout)> {
    let root = workspace_root();
    [
        ("BENCH_scenarios.json", Layout::Pretty),
        ("BENCH_incremental.json", Layout::Compact),
    ]
    .into_iter()
    .map(|(name, layout)| {
        let text = fs::read_to_string(root.join(name)).expect("committed bench file");
        (name, text, layout)
    })
    .collect()
}

/// The JSON reader on one input: an answer, no panic.
fn check_json(ctx: &str, bytes: &[u8]) {
    check_with(ctx, bytes, |src| {
        let _ = parse_json(src);
    });
}

#[test]
fn committed_bench_files_read_and_write_back_byte_for_byte() {
    for (name, text, layout) in bench_files() {
        let root = parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(diff) = first_diff(&text, &write_json(&root, layout)) {
            panic!("{name} does not write back as read: {diff}");
        }
    }
}

/// A seeded sample of about 500 prefixes of each file (every prefix of
/// both would add 2 s to this suite's debug-build time), and seeded byte
/// flips of each.
#[test]
fn bench_file_prefixes_and_flipped_bytes_parse_or_err() {
    let mut inputs = 0usize;
    for (k, (name, text, _)) in bench_files().iter().enumerate() {
        let bytes = text.as_bytes();
        let mut rng = StdRng::seed_from_u64(0xB3AC_F11E ^ k as u64);
        let step = (bytes.len() / 500).max(1);
        let cuts = (0..=bytes.len()).filter(|_| rng.gen_index(step) == 0);
        for cut in cuts {
            check_json(&format!("{name}, prefix {cut}"), &bytes[..cut]);
            inputs += 1;
        }
        for seed in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 16));
            check_json(
                &format!("{name}, flip seed {seed}"),
                &flipped(bytes, &mut rng),
            );
            inputs += 1;
        }
    }
    assert!(inputs >= 1_000, "only {inputs} inputs");
}

/// The one shape the scenario scripts need beyond the bench files: arrays
/// of any value, objects included, under the reader's nesting bound of 64,
/// with no trailing comma.
#[test]
fn arrays_hold_any_value_and_err_when_malformed() {
    let text = r#"{"none": [], "xs": [1, 0.5, "s", null, [true]], "ts": [{"k": 1}, {}]}"#;
    let t = parse_json(text).unwrap();
    assert_eq!(t.get("none"), Some(&Value::Arr(vec![])));
    let xs = [
        Value::Int(1),
        Value::Float(0.5),
        Value::Str("s".into()),
        Value::Null,
        Value::Arr(vec![Value::Bool(true)]),
    ];
    assert_eq!(t.get("xs").and_then(Value::as_arr), Some(&xs[..]));
    let ts = t.get("ts").and_then(Value::as_arr).unwrap();
    assert_eq!(ts[0].as_table(), Some(&Table::new().with("k", 1usize)));
    assert_eq!(ts[1].as_table(), Some(&Table::new()));
    for layout in [Layout::Pretty, Layout::Compact] {
        assert_eq!(parse_json(&write_json(&t, layout)).as_ref(), Ok(&t));
    }
    let nested = |n: usize| format!(r#"{{"a": {}1{}}}"#, "[".repeat(n), "]".repeat(n));
    assert!(parse_json(&nested(64)).is_ok());
    assert!(parse_json(&nested(65))
        .unwrap_err()
        .message
        .contains("too deep"));
    let mixed = r#"[{"b": "#.repeat(40);
    let mixed = format!(r#"{{"a": {mixed}1{}}}"#, "}]".repeat(40));
    assert!(parse_json(&mixed).unwrap_err().message.contains("too deep"));
    for bad in [
        r#"{"a": [1,]}"#,
        r#"{"a": [{},]}"#,
        r#"{"a": ["#,
        r#"{"a": [1"#,
    ] {
        assert!(parse_json(bad).is_err(), "{bad}");
    }
}
